/**
 * @file
 * The seeded request generator, the pinned reference observables, span
 * output and the response bookkeeping every workload shares.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "fith/fith_programs.hpp"
#include "lang/workloads.hpp"
#include "sim/logging.hpp"

namespace perfbench {

using com::api::EngineKind;
using com::serve::Priority;

bool
parseWorkload(const std::string &name, Workload *out)
{
    if (name == "hot_wire")
        *out = Workload::HotWire;
    else if (name == "cold_sim")
        *out = Workload::ColdSim;
    else if (name == "overload")
        *out = Workload::Overload;
    else
        return false;
    return true;
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

namespace {

/** splitmix64: the generator's only source of randomness. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

const char *
kindTag(EngineKind k)
{
    return com::api::engineKindName(k);
}

} // namespace

// ----------------------------------------------------------------------
// References
// ----------------------------------------------------------------------

References::References()
{
    for (const std::string &name : com::lang::workloadNames())
        for (EngineKind k : {EngineKind::Com, EngineKind::Stack}) {
            Pinned p;
            p.kind = k;
            p.program = name;
            p.spec = com::api::ProgramSpec::workload(name);
            rows_.push_back(std::move(p));
        }
    for (const com::fith::FithProgram &f :
         com::fith::standardPrograms()) {
        Pinned p;
        p.kind = EngineKind::Fith;
        p.program = "fith:" + f.name;
        p.spec = com::api::ProgramSpec::fith(p.program, f.source);
        rows_.push_back(std::move(p));
    }
}

std::size_t
References::find(EngineKind kind, const std::string &program) const
{
    for (std::size_t i = 0; i < rows_.size(); ++i)
        if (rows_[i].kind == kind && rows_[i].program == program)
            return i;
    com::sim::fatal("perfbench: no reference row for ", kindTag(kind),
                    ":", program);
}

bool
References::load(const std::string &path, std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        *err = "cannot read " + path;
        return false;
    }
    std::vector<bool> seen(rows_.size(), false);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::vector<std::string> f;
        std::stringstream ss(line);
        for (std::string cell; std::getline(ss, cell, '\t');)
            f.push_back(cell);
        EngineKind kind;
        if (f.size() != 6 || !com::api::parseEngineKind(f[0], kind)) {
            *err = path + ": malformed line: " + line;
            return false;
        }
        std::size_t i = 0;
        while (i < rows_.size() &&
               !(rows_[i].kind == kind && rows_[i].program == f[1]))
            ++i;
        if (i == rows_.size())
            continue; // a program the suite no longer has
        Pinned &p = rows_[i];
        p.result = f[2];
        p.outputHash = std::strtoull(f[3].c_str(), nullptr, 16);
        p.ops = std::strtoull(f[4].c_str(), nullptr, 10);
        p.cycles = std::strtoull(f[5].c_str(), nullptr, 10);
        seen[i] = true;
    }
    for (std::size_t i = 0; i < rows_.size(); ++i)
        if (!seen[i]) {
            *err = path + ": no row for " + kindTag(rows_[i].kind) +
                   ":" + rows_[i].program;
            return false;
        }
    return true;
}

bool
References::pin(const std::string &path, std::string *err)
{
    std::ofstream out(path);
    if (!out) {
        *err = "cannot write " + path;
        return false;
    }
    out << "# kind\tprogram\tresult\toutput_fnv1a\tguest_ops\t"
           "guest_cycles\n";
    for (Pinned &p : rows_) {
        auto engine = com::api::makeEngine(p.kind);
        com::api::RunOutcome o = engine->run(p.spec);
        if (!o.matches(p.spec)) {
            *err = std::string("reference run of ") + kindTag(p.kind) +
                   ":" + p.program + " failed: " + o.error;
            return false;
        }
        p.result = o.resultText;
        p.outputHash = fnv1a(o.output);
        p.ops = o.operations;
        p.cycles = o.cycles;
        char hash[17];
        std::snprintf(hash, sizeof hash, "%016" PRIx64, p.outputHash);
        out << kindTag(p.kind) << '\t' << p.program << '\t' << p.result
            << '\t' << hash << '\t' << p.ops << '\t' << p.cycles
            << '\n';
    }
    return static_cast<bool>(out);
}

std::string
References::check(std::size_t i, const com::api::RunOutcome &out) const
{
    const Pinned &p = rows_[i];
    if (!out.ok)
        return "run failed: " + out.error;
    std::ostringstream why;
    if (out.resultText != p.result)
        why << " result " << out.resultText << " != " << p.result;
    if (fnv1a(out.output) != p.outputHash)
        why << " output hash differs";
    if (out.operations != p.ops)
        why << " guest ops " << out.operations << " != " << p.ops;
    if (out.cycles != p.cycles)
        why << " guest cycles " << out.cycles << " != " << p.cycles;
    return why.str();
}

std::vector<std::string>
References::verifyRows(const std::vector<std::size_t> &rows) const
{
    std::vector<std::string> bad;
    for (std::size_t i : rows) {
        auto engine = com::api::makeEngine(rows_[i].kind);
        std::string why = check(i, engine->run(rows_[i].spec));
        if (!why.empty())
            bad.push_back(std::string("reference ") +
                          kindTag(rows_[i].kind) + ":" +
                          rows_[i].program + ":" + why);
    }
    return bad;
}

// ----------------------------------------------------------------------
// Stream
// ----------------------------------------------------------------------

Stream::Stream(Workload workload, std::uint64_t seed,
               const References &refs)
    : seed_(seed), refs_(refs)
{
    auto add = [&](EngineKind k, const std::string &program,
                   unsigned copies, bool cold) {
        std::size_t r = refs.find(k, program);
        for (unsigned c = 0; c < copies; ++c)
            deck_.push_back({r, cold});
    };
    switch (workload) {
      case Workload::HotWire:
        // Every suite program on COM and stack, and the Fith suite,
        // once per deck: 24 warm sources, all primed in set-up.
        for (std::size_t i = 0; i < refs.size(); ++i)
            deck_.push_back({i, false});
        priorities_ = {Priority::Interactive};
        break;
      case Workload::ColdSim:
        // Equal shares for the call-, loop- and send-heavy programs.
        for (const char *p : {"fib", "bintree", "bank", "richards"})
            add(EngineKind::Com, p, 3, true);
        for (const char *p : {"sieve", "matrix", "nqueens"})
            add(EngineKind::Com, p, 4, true);
        for (const char *p : {"sort", "dictionary"})
            add(EngineKind::Com, p, 6, true);
        priorities_ = {Priority::Interactive};
        break;
      case Workload::Overload:
        // Three hot requests to one unique cold variant.
        for (const char *p : {"fib", "sieve", "sort", "bintree"}) {
            add(EngineKind::Com, p, 3, false);
            add(EngineKind::Com, p, 1, true);
        }
        // Interactive : batch : best-effort = 1 : 4 : 3.
        priorities_ = {Priority::Interactive, Priority::Batch,
                       Priority::Batch,       Priority::Batch,
                       Priority::Batch,       Priority::BestEffort,
                       Priority::BestEffort,  Priority::BestEffort};
        rate_ = kOverloadRate;
        break;
    }
}

std::vector<std::size_t>
Stream::order(std::uint64_t deck, std::size_t n, std::uint64_t salt) const
{
    std::vector<std::size_t> perm(n);
    for (std::size_t i = 0; i < n; ++i)
        perm[i] = i;
    std::uint64_t state = mix64(seed_ ^ mix64(deck * 2 + salt));
    for (std::size_t i = n; i > 1; --i) {
        state = mix64(state);
        std::swap(perm[i - 1], perm[state % i]);
    }
    return perm;
}

Item
Stream::at(std::uint64_t index) const
{
    const std::size_t n = deck_.size();
    const Card &card = deck_[order(index / n, n, 0)[index % n]];
    const std::size_t pn = priorities_.size();
    const Pinned &row = refs_[card.ref];

    Item item;
    item.index = index;
    item.kind = row.kind;
    item.ref = card.ref;
    item.cold = card.cold;
    item.priority = priorities_[order(index / pn, pn, 1)[index % pn]];
    item.spec = row.spec;
    if (card.cold) {
        char nonce[80];
        std::snprintf(nonce, sizeof nonce,
                      "\"perfbench cold %016" PRIx64 "-%" PRIu64 "\"\n",
                      mix64(seed_), index);
        item.spec.source = nonce + row.spec.source;
    }
    return item;
}

std::vector<std::size_t>
Stream::rows() const
{
    std::vector<std::size_t> out;
    for (const Card &c : deck_)
        if (std::find(out.begin(), out.end(), c.ref) == out.end())
            out.push_back(c.ref);
    return out;
}

// ----------------------------------------------------------------------
// Spans, percentiles, windows
// ----------------------------------------------------------------------

bool
writeSpans(const std::string &path, Clock::time_point epoch,
           const std::vector<const SpanLog *> &logs)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    auto us = [epoch](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - epoch)
            .count();
    };
    for (const SpanLog *log : logs)
        for (const Span &s : log->spans())
            std::fprintf(f,
                         "{\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                         ",\"request\":%" PRIu64
                         ",\"layer\":\"%s\",\"start_us\":%.3f,"
                         "\"end_us\":%.3f}\n",
                         s.id, s.parent, s.request, s.layer,
                         us(s.start), us(s.end));
    return std::fclose(f) == 0;
}

double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    rank = std::max<std::size_t>(rank, 1);
    return sorted[std::min(rank - 1, sorted.size() - 1)];
}

namespace {

std::uint64_t
counterDelta(std::uint64_t after, std::uint64_t before)
{
    return after >= before ? after - before : 0;
}

} // namespace

ServerWindow
ServerWindow::between(const com::serve::Metrics::Snapshot &b,
                      const com::serve::Metrics::Snapshot &a)
{
    using Hist = com::serve::LatencyHistogram::Snapshot;
    ServerWindow w;
    w.latency = Hist::delta(a.latency, b.latency);
    w.queueWait = Hist::delta(a.queueWait, b.queueWait);
    w.poolWait = Hist::delta(a.poolWait, b.poolWait);
    w.warmRestore = Hist::delta(a.warmRestore, b.warmRestore);
    w.execute = Hist::delta(a.execute, b.execute);
    w.verify = Hist::delta(a.verify, b.verify);
    w.batches = counterDelta(a.batches, b.batches);
    w.batchedRequests =
        counterDelta(a.batchedRequests, b.batchedRequests);
    w.busySeconds = std::max(0.0, a.busySeconds - b.busySeconds);
    w.workerSeconds = std::max(0.0, a.workerSeconds - b.workerSeconds);
    for (std::size_t p = 0; p < com::serve::kNumPriorities; ++p)
        w.shed += counterDelta(a.shed[p], b.shed[p]);
    w.expired = counterDelta(a.expired, b.expired);
    w.cacheHits = counterDelta(a.cacheHits, b.cacheHits);
    w.cacheMisses = counterDelta(a.cacheMisses, b.cacheMisses);
    w.cacheEvictions = counterDelta(a.cacheEvictions, b.cacheEvictions);
    w.warmStarts = counterDelta(a.warmStarts, b.warmStarts);
    w.warmStartNanos = counterDelta(a.warmStartNanos, b.warmStartNanos);
    return w;
}

void
Window::record(const Item &item, const com::serve::Response &r,
               double at, double latency_s, const References &refs)
{
    ++attempted;
    const bool interactive = item.priority == Priority::Interactive;
    if (interactive)
        ++interactiveAttempted;
    std::string why;
    switch (r.status) {
      case com::serve::ResponseStatus::Ok:
        why = refs.check(item.ref, r.outcome);
        break;
      case com::serve::ResponseStatus::Rejected:
        if (r.retryAfterSeconds > 0.0) {
            ++shed; // load shed by design; a miss for the SLO only
            return;
        }
        why = "rejected: " + r.error; // error frame or lost connection
        break;
      case com::serve::ResponseStatus::Expired:
        why = "expired";
        break;
      case com::serve::ResponseStatus::Failed:
        why = "failed: " + r.error;
        break;
    }
    if (!why.empty()) {
        if (++failed <= 20)
            std::fprintf(stderr, "perfbench: FAIL request %" PRIu64
                                 " %s:%s%s:%s\n",
                         item.index, kindTag(item.kind),
                         refs[item.ref].program.c_str(),
                         item.cold ? " (cold variant)" : "",
                         why.c_str());
        return;
    }
    ++ok;
    const double ms = latency_s * 1e3;
    if (interactive && ms <= kSloMs)
        ++interactiveMet;
    samples.push_back({at, ms,
                       item.kind == EngineKind::Com ? r.outcome.operations
                                                    : 0,
                       interactive});
    observed.emplace(item.ref, std::make_pair(r.outcome.operations,
                                              r.outcome.cycles));
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    if (v.empty())
        return 0.0;
    const std::size_t h = v.size() / 2;
    return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2.0;
}

double
midMean(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t cut = v.size() / 4;
    double sum = 0.0;
    for (std::size_t i = cut; i < v.size() - cut; ++i)
        sum += v[i];
    return v.size() > 2 * cut
               ? sum / static_cast<double>(v.size() - 2 * cut)
               : 0.0;
}

Summary
Window::summarize() const
{
    struct Sub
    {
        std::vector<double> all, interactive;
        double ops = 0.0;
    };
    std::vector<Sub> subs(kSubWindows);
    for (const Sample &s : samples) {
        if (s.at < 0.0 || s.at >= seconds)
            continue;
        Sub &sub = subs[std::min<std::size_t>(
            kSubWindows - 1,
            static_cast<std::size_t>(s.at / seconds * kSubWindows))];
        sub.all.push_back(s.latencyMs);
        if (s.interactive)
            sub.interactive.push_back(s.latencyMs);
        sub.ops += static_cast<double>(s.comOps);
    }
    const double width = seconds / kSubWindows;
    std::vector<double> rps, p50, p90, ip90, mips;
    Summary out;
    out.samplesPerSubWindow = samples.size();
    for (Sub &sub : subs) {
        std::sort(sub.all.begin(), sub.all.end());
        std::sort(sub.interactive.begin(), sub.interactive.end());
        rps.push_back(static_cast<double>(sub.all.size()) / width);
        p50.push_back(percentile(sub.all, 0.50));
        p90.push_back(percentile(sub.all, 0.90));
        ip90.push_back(percentile(sub.interactive, 0.90));
        mips.push_back(sub.ops / width / 1e6);
        out.samplesPerSubWindow =
            std::min(out.samplesPerSubWindow, sub.all.size());
    }
    out.minThroughput = *std::min_element(rps.begin(), rps.end());
    out.maxThroughput = *std::max_element(rps.begin(), rps.end());
    out.throughput = midMean(rps);
    out.p50Ms = midMean(p50);
    out.p90Ms = midMean(p90);
    out.interactiveP90Ms = midMean(ip90);
    out.guestMips = midMean(mips);
    return out;
}

} // namespace perfbench
