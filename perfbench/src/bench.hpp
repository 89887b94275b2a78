/**
 * @file
 * The repository benchmark's load generator: shared declarations.
 *
 * One process generates every request from a seed (Stream), checks
 * every response against pinned reference observables (References),
 * and — on a traced run — keeps per-layer spans in memory (SpanLog) that
 * are written out when the run ends. The three workloads live in
 * workloads.cpp, the traced per-layer pass over private engines in
 * layers.cpp, and argument handling plus the result JSON in main.cpp.
 */

#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "serve/metrics.hpp"
#include "serve/request.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

enum class Workload
{
    HotWire,  ///< warm hits through comsim_routerd over loopback TCP
    ColdSim,  ///< unique COM sources on an in-process scheduler
    Overload, ///< open loop above capacity, mixed priorities
};

/** @return false when @p name names no workload. */
bool parseWorkload(const std::string &name, Workload *out);

// Fixed workload parameters (NOTES.md explains the choices).

/** Closed-loop client connections (hot_wire) or threads (cold_sim). */
constexpr unsigned kClosedLoopClients = 2;
/** Open-loop arrival rate of `overload`, requests per second: about
 *  1.75x the ~2000 req/s its mix saturates at on a 4-CPU host. */
constexpr double kOverloadRate = 3500.0;
/** The interactive latency objective of `overload`, ms. */
constexpr double kSloMs = 250.0;
/** Deadline aging window of `overload`'s scheduler, ms. */
constexpr std::uint64_t kOverloadAgingMs = 50;
/**
 * Queue capacity of `overload`'s shard. The default (1024) lets
 * best-effort requests starve for seconds behind the batch class, so
 * the p99 became a starvation artifact that swung 2-3x between runs;
 * 64 makes displacement shed them instead.
 */
constexpr std::size_t kOverloadQueue = 64;
/** Set-ups per run, half before and half after the measured window;
 *  setup_s is their median. */
constexpr unsigned kSetups = 20;

/** 64-bit FNV-1a, for pinning guest output. */
std::uint64_t fnv1a(const std::string &bytes);

// ----------------------------------------------------------------------
// Pinned reference observables
// ----------------------------------------------------------------------

/** One program on one engine, as pinned in reference.tsv. */
struct Pinned
{
    com::api::EngineKind kind = com::api::EngineKind::Com;
    std::string program; ///< suite name ("fib", "fith:sieve", ...)
    com::api::ProgramSpec spec;
    std::string result;  ///< RunOutcome::resultText
    std::uint64_t outputHash = 0;
    std::uint64_t ops = 0;
    std::uint64_t cycles = 0;
};

/**
 * Every suite program the workloads draw from: the nine Smalltalk
 * workloads on the COM and stack engines and the Fith suite.
 */
class References
{
  public:
    /** The suite, observables unfilled (the order reference.tsv uses). */
    References();

    /** Fill the observables from @p path. @return false (with @p err
     *  set) when the file is missing, malformed or incomplete. */
    bool load(const std::string &path, std::string *err);

    /** Run every program on a fresh engine and write the observables
     *  to @p path (re-pinning; see NOTES.md). */
    bool pin(const std::string &path, std::string *err);

    /** Row index of (@p kind, @p program); fatal when absent. */
    std::size_t find(com::api::EngineKind kind,
                     const std::string &program) const;

    const Pinned &operator[](std::size_t i) const { return rows_[i]; }
    std::size_t size() const { return rows_.size(); }

    /**
     * Compare @p out against row @p i: result, output hash, guest
     * operation count and guest cycle count. @return "" on a match,
     * otherwise what differed.
     */
    std::string check(std::size_t i,
                      const com::api::RunOutcome &out) const;

    /**
     * Run rows @p rows on fresh engines and check each against its
     * pinned observables (part of set-up). @return the mismatches.
     */
    std::vector<std::string>
    verifyRows(const std::vector<std::size_t> &rows) const;

  private:
    std::vector<Pinned> rows_;
};

// ----------------------------------------------------------------------
// The seeded request generator
// ----------------------------------------------------------------------

/** One generated request. */
struct Item
{
    std::uint64_t index = 0; ///< position in the stream (request id)
    com::api::EngineKind kind = com::api::EngineKind::Com;
    com::api::ProgramSpec spec;
    std::size_t ref = 0; ///< the References row its response must match
    bool cold = false;   ///< unique source: a program-cache miss
    com::serve::Priority priority = com::serve::Priority::Interactive;
};

/**
 * The request stream of one workload, a pure function of (workload,
 * seed, index): safe to call from any thread. Requests come in decks:
 * each deck holds every card of the workload's mix its weighted number
 * of times, in an order shuffled from (seed, deck number). So each
 * seed orders requests differently while every deck has the same
 * composition, which keeps mix-weighted figures comparable across
 * seeds. A cold card gets a source no other request has: the program
 * with a leading comment naming the seed and the request index, which
 * changes the cache key but not a single compiled instruction.
 */
class Stream
{
  public:
    Stream(Workload workload, std::uint64_t seed,
           const References &refs);

    Item at(std::uint64_t index) const;

    /** Requests per deck. */
    std::size_t deckSize() const { return deck_.size(); }

    struct Card
    {
        std::size_t ref = 0;
        bool cold = false;
    };
    /** One deck's cards in canonical (unshuffled) order. */
    const std::vector<Card> &cards() const { return deck_; }

    /** The distinct rows the workload draws from. */
    std::vector<std::size_t> rows() const;

    /** Open-loop arrival rate (0 for closed loops). */
    double rate() const { return rate_; }

  private:
    std::vector<std::size_t> order(std::uint64_t deck,
                                   std::size_t n,
                                   std::uint64_t salt) const;

    std::uint64_t seed_;
    const References &refs_;
    std::vector<Card> deck_;
    /** Priority classes, one deck's worth (1:4:3 on overload). */
    std::vector<com::serve::Priority> priorities_;
    double rate_ = 0.0;
};

// ----------------------------------------------------------------------
// Spans
// ----------------------------------------------------------------------

/** One timed call into a layer. */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0: a root span
    std::uint64_t request = 0;
    const char *layer = "";
    Clock::time_point start{};
    Clock::time_point end{};
};

/**
 * The spans of one thread, kept in memory until the run ends. A log
 * that is off records nothing and hands out id 0.
 */
class SpanLog
{
  public:
    SpanLog(bool on, std::uint32_t thread) : on_(on), thread_(thread) {}

    /** Record a finished span. @return its id. */
    std::uint64_t
    add(std::uint64_t request, const char *layer, std::uint64_t parent,
        Clock::time_point start, Clock::time_point end)
    {
        if (!on_)
            return 0;
        std::uint64_t id = (std::uint64_t{thread_} << 40) |
                           (spans_.size() + 1);
        spans_.push_back({id, parent, request, layer, start, end});
        return id;
    }

    /** Reserve a span id for a parent recorded after its children. */
    std::uint64_t
    reserve(std::uint64_t request, const char *layer)
    {
        return add(request, layer, 0, Clock::time_point{},
                   Clock::time_point{});
    }

    /** Fill in the times of a span reserve() handed out. */
    void
    close(std::uint64_t id, Clock::time_point start,
          Clock::time_point end)
    {
        if (!on_ || id == 0)
            return;
        Span &s = spans_[(id & ((std::uint64_t{1} << 40) - 1)) - 1];
        s.start = start;
        s.end = end;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool on_;
    std::uint32_t thread_;
    std::vector<Span> spans_;
};

/** Write every span as one JSON object per line, times in µs since
 *  @p epoch. @return false when @p path cannot be written. */
bool writeSpans(const std::string &path, Clock::time_point epoch,
                const std::vector<const SpanLog *> &logs);

// ----------------------------------------------------------------------
// Measurement results
// ----------------------------------------------------------------------

/** Nearest-rank percentile of an ascending vector (0 when empty). */
double percentile(const std::vector<double> &sorted, double q);

/** Median (0 when empty). */
double median(std::vector<double> v);

/**
 * Interquartile mean: the mean of the middle half (0 when empty). Like
 * the median it ignores bursts, but where a host flips between a fast
 * and a slow state it blends the two in proportion instead of jumping
 * to whichever holds the majority.
 */
double midMean(std::vector<double> v);

/** Server-side counters over one measured window (a snapshot delta). */
struct ServerWindow
{
    com::serve::LatencyHistogram::Snapshot latency, queueWait, poolWait,
        warmRestore, execute, verify;
    std::uint64_t batches = 0, batchedRequests = 0;
    double busySeconds = 0.0, workerSeconds = 0.0;
    std::uint64_t shed = 0, expired = 0;
    std::uint64_t cacheHits = 0, cacheMisses = 0, cacheEvictions = 0;
    std::uint64_t warmStarts = 0, warmStartNanos = 0;

    static ServerWindow between(const com::serve::Metrics::Snapshot &before,
                                const com::serve::Metrics::Snapshot &after);
};

/** One verified response. */
struct Sample
{
    /** Seconds into the window: completion (closed loop) or due time
     *  (open loop). Picks the sub-window the sample falls in. */
    double at = 0.0;
    double latencyMs = 0.0; ///< client-observed
    std::uint64_t comOps = 0; ///< guest COM instructions (0: other kind)
    bool interactive = false;
};

/**
 * Sub-windows a measured window is cut into. Timing metrics are the
 * interquartile mean over them, so a burst of host noise moves one
 * sub-window, not the run's figure.
 */
constexpr unsigned kSubWindows = 10;

/** A window's timing metrics: interquartile means over sub-windows. */
struct Summary
{
    double throughput = 0.0; ///< verified responses per second
    double minThroughput = 0.0, maxThroughput = 0.0; ///< sub-window range
    double p50Ms = 0.0, p90Ms = 0.0, interactiveP90Ms = 0.0;
    double guestMips = 0.0; ///< guest COM instructions served per second
    std::size_t samplesPerSubWindow = 0; ///< the smallest sub-window's
};

/** What one measured window observed. */
struct Window
{
    double seconds = 0.0; ///< the measured span samples fall into
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;     ///< verified Ok responses
    std::uint64_t failed = 0; ///< see NOTES.md for what counts
    std::uint64_t shed = 0;   ///< Rejected with a retry-after hint
    std::uint64_t interactiveAttempted = 0;
    std::uint64_t interactiveMet = 0; ///< served within kSloMs
    std::vector<Sample> samples;
    /** Guest (ops, cycles) of each served row, as responses reported. */
    std::map<std::size_t, std::pair<std::uint64_t, std::uint64_t>>
        observed;
    std::vector<double> submitUs, encodeUs, decodeUs, rttMs, lagMs;
    ServerWindow server;

    /**
     * Fold a response of @p item into the counters; @p at places it in
     * the window, @p latency_s is client-observed. Prints the request
     * id and program on a mismatch.
     */
    void record(const Item &item, const com::serve::Response &r,
                double at, double latency_s, const References &refs);

    /** The sub-window summary (samples outside [0, seconds) are
     *  counted but not placed). */
    Summary summarize() const;
};

/** A named metric value with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything a run reports. */
struct RunReport
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable lines printed above the result. */
    std::vector<std::string> notes;
};

struct RunOptions
{
    Workload workload = Workload::HotWire;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string referencePath;
    std::string traceOut;
    std::string routerdPath;
};

/** Set up, measure and report one workload (workloads.cpp). */
RunReport runWorkload(const RunOptions &opt, const References &refs);

/**
 * The traced per-layer pass (layers.cpp): the first decks of the
 * workload's stream, replayed one request at a time on private engines
 * while timing each public entry point (lang compilers, Machine run,
 * capture/restore, Engine::reset, stack VM, Fith) and reading the
 * Machine's cache and pipeline counters. Adds metrics to @p report.
 */
void runLayerPass(const Stream &stream, const References &refs,
                  SpanLog &log, RunReport *report);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
