/**
 * @file
 * perfbench_runner: one pass of one benchmark workload, in a fresh
 * process, printed as a single JSON line on stdout.
 *
 * The runner drives the library only through its public surface:
 * BenchSpec::gen, the System constructor, run(), report(), the
 * correctness probes and the destructor, plus standalone AmoebaCache
 * and GoldenMemory instances for the per-layer replays. run.py spawns
 * it repeatedly and takes medians across processes, because host
 * times for one workload differ between processes far more than
 * between passes inside one process.
 *
 *   perfbench_runner --workload lr-mw16 --seed 1
 *   perfbench_runner --workload canneal-mw64 --seed 1 --spans out.json
 *   perfbench_runner --workload sweep-mesi-mw --seed 1 --scale-mult 0.1
 *
 * With --spans the pass is traced: spans around every layer boundary
 * are kept in memory and written to that file at exit, and the JSON
 * line gains a "layers" object with the per-layer metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/amoeba_cache.hh"
#include "mem/golden_memory.hh"
#include "protozoa/protozoa.hh"

using namespace protozoa;

namespace {

// ---------------------------------------------------------------------
// Workloads. Why each exists is recorded in BENCHMARK.json.

struct WorkloadDef
{
    const char *name;
    /** Profiles to run, in order; empty means all 28 paper profiles. */
    std::vector<std::string> profiles;
    std::vector<ProtocolKind> protocols;
    unsigned cores;
    unsigned cols;
    unsigned rows;
    double scale;
};

const std::vector<WorkloadDef> &
workloads()
{
    static const std::vector<WorkloadDef> defs = {
        {"lr-mw16", {"linear-regression"}, {ProtocolKind::ProtozoaMW},
         16, 4, 4, 10.0},
        {"canneal-mw64", {"canneal"}, {ProtocolKind::ProtozoaMW},
         64, 8, 8, 0.25},
        {"sweep-mesi-mw", {},
         {ProtocolKind::MESI, ProtocolKind::ProtozoaMW}, 16, 4, 4, 0.05},
    };
    return defs;
}

/** The paper machine resized to the workload's mesh, with the 32 MB
 *  aggregate L2 held fixed (the fig_scaling configuration). */
SystemConfig
configFor(const WorkloadDef &w, ProtocolKind proto, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.protocol = proto;
    cfg.numCores = w.cores;
    cfg.l2Tiles = w.cores;
    cfg.meshCols = w.cols;
    cfg.meshRows = w.rows;
    cfg.l2BytesPerTile = (2ull * 1024 * 1024 * 16) / w.cores;
    cfg.seed = seed;
    // Pin the sequential kernel; run.py refuses to start while
    // PROTOZOA_SIM_THREADS is set, so 0 cannot fall through to it.
    cfg.simThreads = 0;
    return cfg;
}

// ---------------------------------------------------------------------
// Host timing and tracing.

/** The build and host a result came from, as a JSON object. */
std::string
hostStamp(std::uint64_t seed)
{
#ifdef NDEBUG
    const char *ndebug = "true";
#else
    const char *ndebug = "false";
#endif
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"nproc\": %u, \"compiler\": \"%s\", "
                  "\"flags\": \"%s\", \"ndebug\": %s, \"seed\": %llu}",
                  std::thread::hardware_concurrency(), __VERSION__,
                  PERFBENCH_CXX_FLAGS, ndebug,
                  static_cast<unsigned long long>(seed));
    return buf;
}

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kEpoch)
        .count();
}

double
secs(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/**
 * Spans kept in memory for the whole pass. An aggregate span stands
 * for many short calls at one boundary: its start/end bracket the
 * enclosing phase, count is the number of calls and aggNs their
 * summed time.
 */
struct Span
{
    std::string name;
    int parent;
    std::int64_t start;
    std::int64_t end = -1;
    std::uint64_t count = 0;
    std::int64_t aggNs = 0;
    bool aggregate = false;
};

class Tracer
{
  public:
    explicit Tracer(bool on) : enabled(on) {}

    bool on() const { return enabled; }

    int
    open(std::string name, int parent)
    {
        if (!enabled)
            return -1;
        spans.push_back(Span{std::move(name), parent, nowNs()});
        return static_cast<int>(spans.size()) - 1;
    }

    void
    close(int id)
    {
        if (id >= 0)
            spans[id].end = nowNs();
    }

    void
    aggregate(std::string name, int parent, std::int64_t start,
              std::int64_t end, std::uint64_t count, std::int64_t ns)
    {
        spans.push_back(Span{std::move(name), parent, start, end, count,
                             ns, true});
    }

    bool
    write(const std::string &path, const std::string &host) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"host\": %s,\n\"spans\": [\n", host.c_str());
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            std::fprintf(f,
                         "  {\"id\": %zu, \"name\": \"%s\", "
                         "\"parent\": %d, \"start_ns\": %lld, "
                         "\"end_ns\": %lld, \"aggregate\": %s, "
                         "\"count\": %llu, \"agg_ns\": %lld}%s\n",
                         i, s.name.c_str(), s.parent,
                         static_cast<long long>(s.start),
                         static_cast<long long>(s.end),
                         s.aggregate ? "true" : "false",
                         static_cast<unsigned long long>(s.count),
                         static_cast<long long>(s.aggNs),
                         i + 1 < spans.size() ? "," : "");
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    bool enabled;
    std::vector<Span> spans;
};

/** Cost of one steady_clock read pair, subtracted from per-call
 *  timings so short operations are not dominated by the clock. */
std::int64_t
clockPairNs()
{
    std::vector<std::int64_t> d(2001);
    for (auto &v : d) {
        const std::int64_t a = nowNs();
        v = nowNs() - a;
    }
    std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
    return d[d.size() / 2];
}

/** Summed per-call host time at one boundary. */
struct CallTimer
{
    std::uint64_t count = 0;
    std::int64_t ns = 0;

    void
    add(std::int64_t t)
    {
        ++count;
        ns += t;
    }
};

/** Forwards a core's trace and times every TraceSource::next. */
class TimedSource : public TraceSource
{
  public:
    TimedSource(std::unique_ptr<TraceSource> src, CallTimer &t)
        : inner(std::move(src)), timer(t)
    {
    }

    bool
    next(TraceRecord &out) override
    {
        const std::int64_t t0 = nowNs();
        const bool ok = inner->next(out);
        timer.add(nowNs() - t0);
        return ok;
    }

    std::uint64_t cursor() const override { return inner->cursor(); }
    bool seekTo(std::uint64_t n) override { return inner->seekTo(n); }

  private:
    std::unique_ptr<TraceSource> inner;
    CallTimer &timer;
};

/** A System whose Router::send is timed and forwarded unchanged. */
class TimedSystem : public System
{
  public:
    TimedSystem(const SystemConfig &cfg, Workload w, CallTimer &t)
        : System(cfg, std::move(w)), timer(t)
    {
    }

    void
    send(CoherenceMsg msg) override
    {
        const std::int64_t t0 = nowNs();
        System::send(std::move(msg));
        timer.add(nowNs() - t0);
    }

  private:
    CallTimer &timer;
};

// ---------------------------------------------------------------------
// Per-layer replays of the workload's own access stream.

struct Replay
{
    CallTimer lookup;
    CallTimer fill;
    std::int64_t goldenNs = 0;
    std::uint64_t goldenOps = 0;
};

/**
 * Replay each core's records into its own standalone AmoebaCache:
 * findCovering per access, makeRoom+insert per miss. Fills use the
 * repo's two fixed fetch policies, whole region for MESI and exactly
 * the referenced word otherwise, since the live PC predictor is not
 * part of the public surface.
 */
void
replayCache(const SystemConfig &cfg,
            const std::vector<std::vector<TraceRecord>> &recs,
            std::int64_t clockNs, Replay &out)
{
    const bool whole = cfg.protocol == ProtocolKind::MESI;
    const Addr regionMask = ~Addr(cfg.regionBytes - 1);
    AmoebaCache::Evicted victims;
    for (const auto &core : recs) {
        AmoebaCache cache(cfg);
        for (const TraceRecord &r : core) {
            const Addr region = r.addr & regionMask;
            const unsigned word =
                static_cast<unsigned>((r.addr - region) / kWordBytes);
            std::int64_t t0 = nowNs();
            AmoebaBlock *hit = cache.findCovering(region, word);
            std::int64_t t1 = nowNs();
            out.lookup.add(std::max<std::int64_t>(0, t1 - t0 - clockNs));
            if (hit)
                continue;
            AmoebaBlock blk;
            blk.region = region;
            blk.range = whole ? WordRange(0, cfg.regionWords() - 1)
                              : WordRange(word, word);
            blk.state = r.isWrite ? BlockState::M : BlockState::S;
            blk.words.assign(blk.range.words(), 0);
            victims.clear();
            t0 = nowNs();
            cache.makeRoom(region, blk.range, victims);
            cache.insert(std::move(blk));
            t1 = nowNs();
            out.fill.add(std::max<std::int64_t>(0, t1 - t0 - clockNs));
        }
    }
}

/**
 * Replay every store into a GoldenMemory oracle and check every load
 * against it, cores interleaved round-robin. The expected load values
 * come from an untimed first pass, so the timed pass does exactly one
 * commitStore or checkLoad per record.
 */
void
replayGolden(const std::vector<std::vector<TraceRecord>> &recs,
             Replay &out)
{
    std::vector<const TraceRecord *> order;
    std::size_t longest = 0;
    for (const auto &core : recs)
        longest = std::max(longest, core.size());
    for (std::size_t i = 0; i < longest; ++i)
        for (const auto &core : recs)
            if (i < core.size())
                order.push_back(&core[i]);

    std::vector<std::uint64_t> expect;
    {
        GoldenMemory ref;
        std::uint64_t seq = 0;
        for (const TraceRecord *r : order) {
            if (r->isWrite)
                ref.commitStore(r->addr, ++seq);
            else
                expect.push_back(ref.expected(r->addr));
        }
    }
    GoldenMemory golden;
    std::uint64_t seq = 0;
    std::size_t load = 0;
    const std::int64_t t0 = nowNs();
    for (const TraceRecord *r : order) {
        if (r->isWrite)
            golden.commitStore(r->addr, ++seq);
        else
            golden.checkLoad(r->addr, expect[load++]);
    }
    out.goldenNs += nowNs() - t0;
    out.goldenOps += order.size();
    if (golden.violations() != 0)
        fatal("golden replay disagrees with its own reference pass");
}

// ---------------------------------------------------------------------
// Results.

/** FNV-1a over the modelled counters of every System, in run order. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }

    void
    add(const RunStats &s)
    {
        const L1Stats &l = s.l1;
        for (std::uint64_t v :
             {l.loads, l.stores, l.hits, l.misses, l.invMsgsReceived,
              l.blocksInvalidated, l.usedDataBytes, l.unusedDataBytes})
            add(v);
        for (std::uint64_t v : l.ctrlBytes)
            add(v);
        for (std::uint64_t v : l.blockSizeHist)
            add(v);
        const DirStats &d = s.dir;
        for (std::uint64_t v :
             {d.requests, d.l2Misses, d.recalls, d.memReadBytes,
              d.memWriteBytes, d.bloomFalseProbes, d.threeHopDirect,
              d.ownedOneOwnerOnly, d.ownedOneOwnerPlusSharers,
              d.ownedMultiOwner})
            add(v);
        for (std::uint64_t v : {s.net.messages, s.net.bytes, s.net.flits,
                                s.net.flitHops, s.instructions,
                                static_cast<std::uint64_t>(s.cycles)})
            add(v);
    }
};

struct PassResult
{
    unsigned attempted = 0;
    unsigned failed = 0;
    std::vector<std::string> failures;
    Digest digest;
    std::uint64_t records = 0;
    std::int64_t genNs = 0;
    std::int64_t constructNs = 0;
    std::int64_t runNs = 0;
    std::int64_t teardownNs = 0;
    /** Sum over Systems of run time and accesses, per protocol. */
    std::int64_t runNsBy[4] = {};
    std::uint64_t accessesBy[4] = {};
    RunStats total;
    std::uint64_t maxQueueDepth = 0;
    std::uint64_t valueViolations = 0;
    CallTimer next;
    CallTimer send;
    Replay replay;
};

std::vector<std::vector<TraceRecord>>
captureRecords(Workload &w)
{
    std::vector<std::vector<TraceRecord>> out(w.size());
    for (std::size_t c = 0; c < w.size(); ++c) {
        TraceRecord r;
        while (w[c]->next(r))
            out[c].push_back(r);
        if (!w[c]->seekTo(0))
            fatal("trace of core %zu cannot rewind", c);
    }
    return out;
}

std::uint64_t
countRecords(const Workload &w)
{
    std::uint64_t n = 0;
    for (const auto &src : w) {
        const auto *vec = dynamic_cast<const VectorTrace *>(src.get());
        if (!vec)
            fatal("benchmark profiles must produce in-memory traces");
        n += vec->size();
    }
    return n;
}

void
runOne(const WorkloadDef &def, const std::string &profile,
       ProtocolKind proto, std::uint64_t seed, double scale,
       Tracer &tr, int passSpan, std::int64_t clockNs, PassResult &res,
       bool replay)
{
    const SystemConfig cfg = configFor(def, proto, seed);
    const BenchSpec &spec = findBenchmark(profile);
    const int sysSpan = tr.open(
        "system:" + profile + "/" + protocolName(proto), passSpan);

    int span = tr.open("workload.gen", sysSpan);
    std::int64_t t0 = nowNs();
    Workload w = spec.gen(cfg, scale);
    std::int64_t t1 = nowNs();
    tr.close(span);
    res.genNs += t1 - t0;
    const std::uint64_t records = countRecords(w);
    res.records += records;

    std::vector<std::vector<TraceRecord>> recs;
    if (replay) {
        span = tr.open("replay.capture", sysSpan);
        recs = captureRecords(w);
        tr.close(span);
    }
    if (tr.on())
        for (auto &src : w)
            src = std::make_unique<TimedSource>(std::move(src), res.next);
    const std::uint64_t next0 = res.next.count, send0 = res.send.count;
    const std::int64_t nextNs0 = res.next.ns, sendNs0 = res.send.ns;

    span = tr.open("sim.construct", sysSpan);
    t0 = nowNs();
    std::unique_ptr<System> sys =
        tr.on() ? std::make_unique<TimedSystem>(cfg, std::move(w),
                                                res.send)
                : std::make_unique<System>(cfg, std::move(w));
    t1 = nowNs();
    tr.close(span);
    res.constructNs += t1 - t0;

    span = tr.open("sim.run", sysSpan);
    t0 = nowNs();
    sys->run();
    t1 = nowNs();
    tr.close(span);
    if (tr.on()) {
        tr.aggregate("core.next", span, t0, t1, res.next.count - next0,
                     res.next.ns - nextNs0);
        tr.aggregate("noc.send", span, t0, t1, res.send.count - send0,
                     res.send.ns - sendNs0);
    }
    const auto p = static_cast<unsigned>(proto);
    res.runNs += t1 - t0;
    res.runNsBy[p] += t1 - t0;

    span = tr.open("check", sysSpan);
    const RunStats st = sys->report();
    const std::uint64_t accesses = st.l1.loads + st.l1.stores;
    res.accessesBy[p] += accesses;
    res.valueViolations += sys->valueViolations();
    std::string why;
    if (sys->parallelEngine())
        why = "sharded engine selected";
    else if (!sys->finished())
        why = "run did not finish";
    else if (sys->valueViolations() != 0)
        why = std::to_string(sys->valueViolations()) +
              " golden-value violations";
    else if (auto v = sys->checkCoherenceInvariant())
        why = "coherence invariant: " + *v;
    else if (accesses != records)
        why = std::to_string(accesses) + " accesses simulated for " +
              std::to_string(records) + " records";
    tr.close(span);
    ++res.attempted;
    if (!why.empty()) {
        ++res.failed;
        res.failures.push_back(profile + "/" + protocolName(proto) +
                               ": " + why);
    }
    res.digest.add(st);
    res.total.l1.merge(st.l1);
    res.total.dir.merge(st.dir);
    res.total.net.merge(st.net);
    res.total.kernel.merge(st.kernel);
    res.total.instructions += st.instructions;
    res.total.cycles += st.cycles;
    res.maxQueueDepth = std::max(res.maxQueueDepth,
                                 st.kernel.maxQueueDepth);

    span = tr.open("sim.teardown", sysSpan);
    t0 = nowNs();
    sys.reset();
    t1 = nowNs();
    tr.close(span);
    res.teardownNs += t1 - t0;

    if (replay) {
        span = tr.open("replay.cache", sysSpan);
        replayCache(cfg, recs, clockNs, res.replay);
        tr.close(span);
        span = tr.open("replay.golden", sysSpan);
        replayGolden(recs, res.replay);
        tr.close(span);
    }
    tr.close(sysSpan);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
perNs(std::int64_t ns, std::uint64_t n)
{
    return n ? static_cast<double>(ns) / static_cast<double>(n) : 0.0;
}

void
printLayers(const PassResult &r, std::int64_t clockNs)
{
    const RunStats &s = r.total;
    const auto mesi = static_cast<unsigned>(ProtocolKind::MESI);
    const auto mw = static_cast<unsigned>(ProtocolKind::ProtozoaMW);
    const double calls = static_cast<double>(clockNs);
    const auto callNs = [&](const CallTimer &t) {
        return std::max(0.0, perNs(t.ns, t.count) - calls);
    };
    const std::uint64_t accesses = s.l1.hits + s.l1.misses;
    struct Metric
    {
        const char *name;
        const char *unit;
        double value;
    };
    const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    const Metric m[] = {
        {"workload.gen_s", "s", secs(r.genNs)},
        {"workload.records", "count", n(r.records)},
        {"sim.construct_s", "s", secs(r.constructNs)},
        {"sim.teardown_s", "s", secs(r.teardownNs)},
        {"sim.run_s", "s", secs(r.runNs)},
        {"sim.mesi_accesses_per_s", "1/s",
         ratio(n(r.accessesBy[mesi]), secs(r.runNsBy[mesi]))},
        {"sim.mw_accesses_per_s", "1/s",
         ratio(n(r.accessesBy[mw]), secs(r.runNsBy[mw]))},
        {"core.next_ns", "ns", callNs(r.next)},
        {"cache.hits", "count", n(s.l1.hits)},
        {"cache.misses", "count", n(s.l1.misses)},
        {"cache.mpki", "1/kinstr", s.mpki()},
        {"cache.hit_rate", "ratio", ratio(n(s.l1.hits), n(accesses))},
        {"cache.used_data_fraction", "ratio", s.usedDataFraction()},
        {"cache.blocks_invalidated", "count", n(s.l1.blocksInvalidated)},
        {"cache.lookup_ns", "ns",
         perNs(r.replay.lookup.ns, r.replay.lookup.count)},
        {"cache.fill_ns", "ns",
         perNs(r.replay.fill.ns, r.replay.fill.count)},
        {"protocol.dir_requests", "count", n(s.dir.requests)},
        {"protocol.l2_misses", "count", n(s.dir.l2Misses)},
        {"protocol.recalls", "count", n(s.dir.recalls)},
        {"protocol.ctrl_bytes", "bytes", n(s.l1.ctrlBytesTotal())},
        {"protocol.msgs_per_miss", "msgs/miss",
         ratio(n(s.net.messages), n(s.l1.misses))},
        {"noc.messages", "count", n(s.net.messages)},
        {"noc.flit_hops", "count", n(s.net.flitHops)},
        {"noc.send_ns", "ns", callNs(r.send)},
        {"kernel.events", "count", n(s.kernel.eventsExecuted)},
        {"kernel.ns_per_event", "ns",
         perNs(r.runNs, s.kernel.eventsExecuted)},
        {"kernel.bucket_hit_rate", "ratio", s.kernel.bucketHitRate()},
        {"kernel.max_queue_depth", "count", n(r.maxQueueDepth)},
        {"mem.golden_ns", "ns",
         perNs(r.replay.goldenNs, r.replay.goldenOps)},
        {"mem.value_violations", "count", n(r.valueViolations)},
    };
    std::printf(", \"layers\": {");
    for (std::size_t i = 0; i < std::size(m); ++i)
        std::printf("%s\"%s\": [%.17g, \"%s\"]", i ? ", " : "",
                    m[i].name, m[i].value, m[i].unit);
    std::printf("}");
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload NAME --seed N "
                 "[--scale-mult X] [--spans PATH]\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name, spansPath;
    std::uint64_t seed = 1;
    double scaleMult = 1.0;
    for (int i = 1; i < argc; ++i) {
        const bool more = i + 1 < argc;
        if (!std::strcmp(argv[i], "--workload") && more)
            name = argv[++i];
        else if (!std::strcmp(argv[i], "--seed") && more)
            seed = std::strtoull(argv[++i], nullptr, 10);
        else if (!std::strcmp(argv[i], "--scale-mult") && more)
            scaleMult = std::strtod(argv[++i], nullptr);
        else if (!std::strcmp(argv[i], "--spans") && more)
            spansPath = argv[++i];
        else
            usage();
    }
    const WorkloadDef *def = nullptr;
    for (const auto &w : workloads())
        if (name == w.name)
            def = &w;
    if (!def || !(scaleMult > 0))
        usage();

    Tracer tr(!spansPath.empty());
    const std::int64_t clockNs = tr.on() ? clockPairNs() : 0;
    const double scale = def->scale * scaleMult;
    std::vector<std::string> profiles = def->profiles;
    if (profiles.empty())
        for (const auto &spec : paperBenchmarks())
            profiles.push_back(spec.name);

    PassResult res;
    const int passSpan = tr.open(std::string("pass:") + def->name, -1);
    for (const auto &profile : profiles)
        for (ProtocolKind proto : def->protocols)
            runOne(*def, profile, proto, seed, scale, tr, passSpan,
                   clockNs, res, tr.on());
    // A traced pass of an MW-only workload also runs each profile once
    // under MESI, so every workload reports the MW/MESI throughput
    // pair. The twin feeds only sim.mesi_accesses_per_s.
    const bool hasMesi =
        std::find(def->protocols.begin(), def->protocols.end(),
                  ProtocolKind::MESI) != def->protocols.end();
    if (tr.on() && !hasMesi) {
        PassResult twin;
        for (const auto &profile : profiles)
            runOne(*def, profile, ProtocolKind::MESI, seed, scale, tr,
                   passSpan, clockNs, twin, false);
        const auto mesi = static_cast<unsigned>(ProtocolKind::MESI);
        res.runNsBy[mesi] = twin.runNsBy[mesi];
        res.accessesBy[mesi] = twin.accessesBy[mesi];
        res.attempted += twin.attempted;
        res.failed += twin.failed;
        res.failures.insert(res.failures.end(), twin.failures.begin(),
                            twin.failures.end());
    }
    tr.close(passSpan);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double rssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    const std::uint64_t accesses = res.total.l1.loads +
                                   res.total.l1.stores;

    std::printf("{\"workload\": \"%s\", \"seed\": %llu, "
                "\"traced\": %s, \"attempted\": %u, \"failed\": %u, "
                "\"failures\": [",
                def->name, static_cast<unsigned long long>(seed),
                tr.on() ? "true" : "false", res.attempted, res.failed);
    for (std::size_t i = 0; i < res.failures.size(); ++i)
        std::printf("%s\"%s\"", i ? ", " : "", res.failures[i].c_str());
    std::printf("], \"digest\": \"%016llx\", \"records\": %llu, "
                "\"accesses\": %llu, \"sim_cycles\": %llu, "
                "\"traffic_bytes\": %llu, \"setup_s\": %.9f, "
                "\"run_s\": %.9f, \"total_s\": %.9f, "
                "\"peak_rss_mb\": %.3f",
                static_cast<unsigned long long>(res.digest.h),
                static_cast<unsigned long long>(res.records),
                static_cast<unsigned long long>(accesses),
                static_cast<unsigned long long>(res.total.cycles),
                static_cast<unsigned long long>(res.total.net.bytes),
                secs(res.genNs + res.constructNs), secs(res.runNs),
                secs(res.genNs + res.constructNs + res.runNs +
                     res.teardownNs),
                rssMb);
    const RunStats &t = res.total;
    std::printf(", \"counters\": {\"loads\": %llu, \"stores\": %llu, "
                "\"hits\": %llu, \"misses\": %llu, "
                "\"dir_requests\": %llu, \"messages\": %llu, "
                "\"flit_hops\": %llu, \"instructions\": %llu}",
                static_cast<unsigned long long>(t.l1.loads),
                static_cast<unsigned long long>(t.l1.stores),
                static_cast<unsigned long long>(t.l1.hits),
                static_cast<unsigned long long>(t.l1.misses),
                static_cast<unsigned long long>(t.dir.requests),
                static_cast<unsigned long long>(t.net.messages),
                static_cast<unsigned long long>(t.net.flitHops),
                static_cast<unsigned long long>(t.instructions));
    if (tr.on())
        printLayers(res, clockNs);
    const std::string host = hostStamp(seed);
    std::printf(", \"host\": %s}\n", host.c_str());
    if (tr.on() && !tr.write(spansPath, host)) {
        std::fprintf(stderr, "cannot write spans to %s\n",
                     spansPath.c_str());
        return 1;
    }
    return 0;
}
