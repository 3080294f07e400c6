/**
 * @file
 * microbench: the simulator's micro-benchmarks in one binary, timed
 * with steady_clock and no external benchmark library.
 *
 * Sections, chosen by positional arguments (none means all of them):
 *
 *  - kernel: events/s of the calendar EventQueue against
 *    LegacyEventQueue, a replica of the seed's binary-heap +
 *    std::function kernel, on a simulator-shaped delay mix with
 *    CoherenceMsg-sized captures (gated: calendar/legacy >= 1.5) and
 *    on empty captures (reported, not gated).
 *  - system: accesses/s of a 16-core System driven by the random
 *    tester under MESI and Protozoa-MW (gated: MW/MESI >= 0.8 x the
 *    recorded baseline). A coherence violation is an error.
 *  - stream: PZTR trace write and streamed-read records/s, and
 *    snapshot save/restore latency and image size on the 16-core 4x4
 *    and 64-core 8x8 machines. Honours PROTOZOA_SCALE.
 *
 * Every number is the median of kReps repetitions; a repetition
 * repeats its workload until kMinRepSeconds have passed.
 * The two sides of each gated ratio alternate within a repetition so
 * that host drift hits both. Each number is one JSON row on stdout,
 *
 *   {"section": ..., "name": ..., "value": ..., "unit": ...,
 *    "reps": ..., "host": {"nproc", "compiler", "flags", "ndebug"}}
 *
 * with "gate_min" and "pass" added on gated rows; --json PATH also
 * writes the rows as a JSON array. Exit status: 0 when every gate
 * passes, 1 when one fails, 2 on a usage error or a failed run.
 *
 *   microbench                              # every section
 *   microbench kernel system --json out.json
 *   PROTOZOA_SCALE=0.2 microbench stream
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "common/event_queue.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "protozoa/protozoa.hh"
#include "workload/streaming_trace.hh"

using namespace protozoa;

namespace {

/** Calendar/legacy events/s on the CoherenceMsg-payload mix. */
constexpr double kKernelRatioMin = 1.5;

/**
 * MW/MESI random-tester accesses/s recorded when the bit-parallel
 * word-mask data path landed (133.8k / 408.4k on a 1-vCPU container;
 * EXPERIMENTS.md "Word-mask data path"). Both sides come from one
 * binary on one host, so the ratio travels between machines; a drop
 * of more than 20% means the MW path itself regressed.
 */
constexpr double kMwOverMesiBaseline = 0.328;
constexpr double kMwOverMesiMin = 0.8 * kMwOverMesiBaseline;

/** Repetitions per number, and the shortest wall time of each. */
constexpr unsigned kReps = 5;
constexpr double kMinRepSeconds = 0.2;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Keeps benchmark results observable so no loop is optimized out. */
volatile std::uint64_t gSink = 0;

/**
 * Run @p body, which returns the items it processed, until
 * kMinRepSeconds have passed. @return items per second.
 */
double
ratePerSecond(const std::function<std::uint64_t()> &body)
{
    const Clock::time_point t0 = Clock::now();
    double items = 0.0;
    double elapsed = 0.0;
    do {
        items += static_cast<double>(body());
        elapsed = secondsSince(t0);
    } while (elapsed < kMinRepSeconds);
    return items / elapsed;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------
// Rows.

struct Row
{
    std::string section;
    std::string name;
    double value = 0.0;
    std::string unit;
    std::optional<double> gateMin;

    bool pass() const { return !gateMin || value >= *gateMin; }
};

class Report
{
  public:
    Report()
    {
#ifdef NDEBUG
        const char *ndebug = "true";
#else
        const char *ndebug = "false";
#endif
        char buf[512];
        std::snprintf(buf, sizeof buf,
                      "{\"nproc\": %u, \"compiler\": \"%s\", "
                      "\"flags\": \"%s\", \"ndebug\": %s}",
                      std::thread::hardware_concurrency(), __VERSION__,
                      MICROBENCH_CXX_FLAGS, ndebug);
        host = buf;
    }

    void
    add(Row row)
    {
        std::printf("%s\n", json(row).c_str());
        std::fflush(stdout);
        if (!row.pass())
            std::fprintf(stderr,
                         "microbench: gate failed: %s %s = %.4f, "
                         "needs >= %.4f\n",
                         row.section.c_str(), row.name.c_str(),
                         row.value, *row.gateMin);
        rows.push_back(std::move(row));
    }

    bool
    allPass() const
    {
        return std::all_of(rows.begin(), rows.end(),
                           [](const Row &r) { return r.pass(); });
    }

    bool
    writeJson(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "[\n");
        for (std::size_t i = 0; i < rows.size(); ++i)
            std::fprintf(f, "%s%s\n", json(rows[i]).c_str(),
                         i + 1 < rows.size() ? "," : "");
        std::fprintf(f, "]\n");
        return std::fclose(f) == 0;
    }

  private:
    std::string
    json(const Row &r) const
    {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "{\"section\": \"%s\", \"name\": \"%s\", "
                      "\"value\": %.10g, \"unit\": \"%s\", \"reps\": %u",
                      r.section.c_str(), r.name.c_str(), r.value,
                      r.unit.c_str(), kReps);
        std::string out = buf;
        if (r.gateMin) {
            std::snprintf(buf, sizeof buf,
                          ", \"gate_min\": %.10g, \"pass\": %s",
                          *r.gateMin, r.pass() ? "true" : "false");
            out += buf;
        }
        return out + ", \"host\": " + host + "}";
    }

    std::string host;
    std::vector<Row> rows;
};

// ---------------------------------------------------------------------
// kernel: calendar EventQueue vs the seed's heap kernel.

/**
 * The pre-calendar kernel: one global binary heap of heap-allocated
 * std::function callbacks (the seed implementation of EventQueue),
 * kept here so the comparison runs in one binary under one set of
 * flags.
 */
class LegacyEventQueue
{
  public:
    using Callback = std::function<void()>;

    Cycle now() const { return curCycle; }

    void
    schedule(Cycle delay, Callback cb)
    {
        events.push(Event{curCycle + delay, nextSeq++, std::move(cb)});
    }

    bool
    step()
    {
        if (events.empty())
            return false;
        Event ev = std::move(events.top().self());
        events.pop();
        curCycle = ev.when;
        ev.cb();
        return true;
    }

    void
    run()
    {
        while (step()) {
        }
    }

  private:
    struct Event
    {
        Cycle when;
        std::uint64_t seq;
        mutable Callback cb;

        /** Move-enable top(): same trick, without the const_cast. */
        Event &self() const { return const_cast<Event &>(*this); }

        bool
        operator>(const Event &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
    Cycle curCycle = 0;
    std::uint64_t nextSeq = 0;
};

/**
 * Simulator-shaped delay mix (see mesh/L1/memory latencies): one raw
 * draw, masks and shifts only, so the generator does not drown out the
 * scheduler cost being measured.
 */
Cycle
mixedDelay(Rng &rng)
{
    const std::uint64_t r = rng.next();
    const unsigned sel = r & 127;
    if (sel < 90)
        return 1 + ((r >> 8) & 7);           // cache hit / mesh hop
    if (sel < 122)
        return 1 + ((r >> 8) & 255);         // directory / memory tier
    return EventQueue::kRingHorizon + ((r >> 8) & 8191); // long tail
}

/** A CoherenceMsg-sized payload carried by every callback. */
struct Payload
{
    std::uint64_t words[10];
};

/**
 * Self-rescheduling event chain: each firing touches its payload and
 * schedules a successor, exactly like a controller pipeline stage.
 */
template <typename Queue>
struct Chain
{
    Queue *q;
    Rng *rng;
    std::uint64_t *sink;
    std::uint64_t remaining;
    Payload payload;

    void
    operator()()
    {
        *sink += payload.words[0];
        if (remaining == 0)
            return;
        Chain next = *this;
        --next.remaining;
        next.payload.words[0] ^= *sink;
        q->schedule(mixedDelay(*rng), std::move(next));
    }
};

/** 64 chains of 64 hops. @return events executed. */
template <typename Queue>
std::uint64_t
runKernelMix()
{
    constexpr unsigned kChains = 64;
    constexpr std::uint64_t kHops = 64;
    Queue q;
    Rng rng(1);
    std::uint64_t sink = 0;
    for (unsigned c = 0; c < kChains; ++c) {
        Chain<Queue> chain{&q, &rng, &sink, kHops, Payload{}};
        chain.payload.words[0] = c + 1;
        q.schedule(mixedDelay(rng), std::move(chain));
    }
    q.run();
    gSink = gSink + sink;
    return kChains * (kHops + 1);
}

/** Empty captures: pure scheduler overhead. @return events executed. */
template <typename Queue>
std::uint64_t
runTrivial()
{
    constexpr unsigned kEvents = 4096;
    Queue q;
    Rng rng(2);
    for (unsigned i = 0; i < kEvents; ++i)
        q.schedule(mixedDelay(rng), [] {});
    q.run();
    return kEvents;
}

/**
 * Median rates of two workloads timed in alternation, and their
 * ratio; @p gate_min, when set, gates the ratio.
 */
void
ratioRows(Report &rep, const char *section, const std::string &a_name,
          const std::function<std::uint64_t()> &a,
          const std::string &b_name,
          const std::function<std::uint64_t()> &b, const char *unit,
          const std::string &ratio_name, std::optional<double> gate_min)
{
    std::vector<double> ra, rb;
    for (unsigned i = 0; i < kReps; ++i) {
        rb.push_back(ratePerSecond(b));
        ra.push_back(ratePerSecond(a));
    }
    const double ma = median(ra);
    const double mb = median(rb);
    rep.add({section, a_name, ma, unit, {}});
    rep.add({section, b_name, mb, unit, {}});
    rep.add({section, ratio_name, ma / mb, "ratio", gate_min});
}

void
kernelSection(Report &rep)
{
    ratioRows(rep, "kernel", "calendar.events_per_s",
              runKernelMix<EventQueue>, "legacy.events_per_s",
              runKernelMix<LegacyEventQueue>, "1/s",
              "calendar_over_legacy", kKernelRatioMin);
    ratioRows(rep, "kernel", "calendar_trivial.events_per_s",
              runTrivial<EventQueue>, "legacy_trivial.events_per_s",
              runTrivial<LegacyEventQueue>, "1/s",
              "calendar_over_legacy_trivial", std::nullopt);
}

// ---------------------------------------------------------------------
// system: random-tester throughput, MESI vs Protozoa-MW.

/** One 16-core random-tester run. @return accesses simulated. */
std::uint64_t
runTester(ProtocolKind proto)
{
    RandomTester::Params p;
    p.protocol = proto;
    p.accessesPerCore = 2000;
    p.seed = 7;
    const RandomTester::Result res = RandomTester::run(p);
    if (res.valueViolations || res.invariantViolations) {
        std::fprintf(stderr,
                     "microbench: coherence violation under %s "
                     "(%llu value, %llu invariant)\n",
                     protocolTraits(proto).name,
                     (unsigned long long)res.valueViolations,
                     (unsigned long long)res.invariantViolations);
        std::exit(2);
    }
    gSink = gSink + res.stats.l1.misses;
    return res.accesses;
}

void
systemSection(Report &rep)
{
    ratioRows(rep, "system", "mw.accesses_per_s",
              [] { return runTester(ProtocolKind::ProtozoaMW); },
              "mesi.accesses_per_s",
              [] { return runTester(ProtocolKind::MESI); }, "1/s",
              "mw_over_mesi", kMwOverMesiMin);
}

// ---------------------------------------------------------------------
// stream: PZTR ingest and snapshot save/restore.

std::vector<std::vector<TraceRecord>>
materialize(unsigned cores, std::uint64_t per_core)
{
    std::vector<std::vector<TraceRecord>> recs(cores);
    for (unsigned c = 0; c < cores; ++c) {
        GeneratorTraceSource g(syntheticStreamRefill(7, c, cores, 4096),
                               per_core, 4096);
        recs[c].reserve(per_core);
        TraceRecord r;
        while (g.next(r))
            recs[c].push_back(r);
    }
    return recs;
}

void
ingestRows(Report &rep, double scale)
{
    const unsigned cores = 16;
    const std::uint64_t perCore =
        static_cast<std::uint64_t>(200000 * scale) + 1000;
    const auto recs = materialize(cores, perCore);
    const std::uint64_t total = perCore * cores;
    const std::string path = "microbench.trace.pztr";

    std::vector<double> write, read;
    for (unsigned i = 0; i < kReps; ++i) {
        Clock::time_point t0 = Clock::now();
        {
            std::ofstream out(path, std::ios::binary);
            TraceWriter w(out, cores);
            for (unsigned c = 0; c < cores; ++c)
                for (const TraceRecord &r : recs[c])
                    w.append(c, r);
        }
        write.push_back(total / secondsSince(t0));

        t0 = Clock::now();
        std::string err;
        auto file = StreamingTraceFile::open(path, &err);
        if (!file) {
            std::fprintf(stderr, "microbench: %s\n", err.c_str());
            std::exit(2);
        }
        Workload wl = file->makeWorkload();
        std::uint64_t got = 0;
        TraceRecord r;
        for (auto &src : wl)
            while (src->next(r))
                ++got;
        read.push_back(total / secondsSince(t0));
        if (got != total) {
            std::fprintf(stderr,
                         "microbench: PZTR ingest lost records: "
                         "%llu/%llu\n",
                         (unsigned long long)got,
                         (unsigned long long)total);
            std::exit(2);
        }
    }
    std::remove(path.c_str());
    rep.add({"stream", "pztr.records", double(total), "count", {}});
    rep.add({"stream", "pztr.write_records_per_s", median(write), "1/s",
             {}});
    rep.add({"stream", "pztr.read_records_per_s", median(read), "1/s",
             {}});
}

/** Mid-run checkpoint of the apache profile under Protozoa-MW. */
void
snapshotRows(Report &rep, unsigned cols, unsigned rows, double scale)
{
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaMW;
    cfg.numCores = cols * rows;
    cfg.l2Tiles = cfg.numCores;
    cfg.meshCols = cols;
    cfg.meshRows = rows;
    const BenchSpec &spec = findBenchmark("apache");

    System donor(cfg, spec.gen(cfg, scale));
    donor.runTo(50000);

    std::vector<double> save, restore;
    std::size_t bytes = 0;
    std::string err;
    for (unsigned i = 0; i < kReps; ++i) {
        Serializer img;
        Clock::time_point t0 = Clock::now();
        if (!donor.saveSnapshot(img, &err)) {
            std::fprintf(stderr, "microbench: save failed: %s\n",
                         err.c_str());
            std::exit(2);
        }
        save.push_back(secondsSince(t0) * 1e3);
        bytes = img.size();

        System fresh(cfg, spec.gen(cfg, scale));
        Deserializer d(img.bytes().data(), img.size());
        t0 = Clock::now();
        if (!fresh.restoreSnapshot(d, &err)) {
            std::fprintf(stderr, "microbench: restore failed: %s\n",
                         err.c_str());
            std::exit(2);
        }
        restore.push_back(secondsSince(t0) * 1e3);
    }
    const std::string prefix =
        "snapshot" + std::to_string(cfg.numCores) + ".";
    rep.add({"stream", prefix + "image_bytes", double(bytes), "bytes",
             {}});
    rep.add({"stream", prefix + "save_ms", median(save), "ms", {}});
    rep.add({"stream", prefix + "restore_ms", median(restore), "ms", {}});
}

void
streamSection(Report &rep)
{
    double scale = 1.0;
    if (const char *s = std::getenv("PROTOZOA_SCALE"))
        scale = std::atof(s);
    ingestRows(rep, scale);
    snapshotRows(rep, 4, 4, 0.2 * scale + 0.01);
    snapshotRows(rep, 8, 8, 0.05 * scale + 0.01);
}

// ---------------------------------------------------------------------

struct Section
{
    const char *name;
    void (*run)(Report &);
};

constexpr Section kSections[] = {
    {"kernel", kernelSection},
    {"system", systemSection},
    {"stream", streamSection},
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: microbench [kernel] [system] [stream] "
                 "[--json PATH]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonPath;
    std::vector<std::string> chosen;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            jsonPath = argv[++i];
        } else if (std::any_of(std::begin(kSections),
                               std::end(kSections),
                               [&](const Section &s) {
                                   return arg == s.name;
                               })) {
            chosen.push_back(arg);
        } else {
            return usage();
        }
    }

    Report rep;
    for (const Section &s : kSections)
        if (chosen.empty() ||
            std::find(chosen.begin(), chosen.end(), s.name) !=
                chosen.end())
            s.run(rep);

    if (!jsonPath.empty() && !rep.writeJson(jsonPath)) {
        std::fprintf(stderr, "microbench: cannot write %s\n",
                     jsonPath.c_str());
        return 2;
    }
    return rep.allPass() ? 0 : 1;
}
