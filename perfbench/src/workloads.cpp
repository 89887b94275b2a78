/**
 * @file
 * The three workloads: set-up, one measured window, tear-down.
 *
 * Thread and connection budget (4 CPUs): hot_wire runs 2 client
 * threads on 2 connections plus one idle metrics connection, against a
 * router with 2 worker processes of 1 scheduler thread each; cold_sim
 * runs 2 client threads against 2 shards of 1 worker; overload runs one
 * generator thread against 1 shard of 3 workers.
 */

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <fstream>
#include <future>
#include <memory>
#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "bench.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "serve/scheduler.hpp"
#include "sim/logging.hpp"

extern char **environ;

namespace perfbench {

using com::api::EngineKind;
namespace serve = com::serve;
namespace net = com::net;

namespace {

/** VmHWM of @p pid in MiB (0 when unreadable). */
double
peakRssMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/** Host CPU ticks so far: {steal, total} from /proc/stat. A busy
 *  hypervisor shows as steal, and explains a slow run. */
std::pair<double, double>
cpuTicks()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    double total = 0.0, steal = 0.0, v = 0.0;
    for (int field = 0; field < 8 && in >> v; ++field) {
        total += v;
        if (field == 7)
            steal = v;
    }
    return {steal, total};
}

std::vector<pid_t>
childrenOf(pid_t pid)
{
    std::string p = "/proc/" + std::to_string(pid) + "/task/" +
                    std::to_string(pid) + "/children";
    std::ifstream in(p);
    std::vector<pid_t> out;
    for (long c; in >> c;)
        out.push_back(static_cast<pid_t>(c));
    return out;
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/** Fold a thread's window into the run's. */
void
merge(Window &into, Window &&from)
{
    into.attempted += from.attempted;
    into.ok += from.ok;
    into.failed += from.failed;
    into.shed += from.shed;
    into.interactiveAttempted += from.interactiveAttempted;
    into.interactiveMet += from.interactiveMet;
    auto append = [](auto &a, auto &b) {
        a.insert(a.end(), b.begin(), b.end());
    };
    append(into.samples, from.samples);
    append(into.submitUs, from.submitUs);
    append(into.encodeUs, from.encodeUs);
    append(into.decodeUs, from.decodeUs);
    append(into.rttMs, from.rttMs);
    append(into.lagMs, from.lagMs);
    into.observed.insert(from.observed.begin(), from.observed.end());
}

double
us(Clock::time_point a, Clock::time_point b)
{
    return secondsBetween(a, b) * 1e6;
}

/** The comsim_routerd process of hot_wire, and its workers. */
class RouterProcess
{
  public:
    RouterProcess() = default;
    ~RouterProcess() { stop(); }

    RouterProcess(const RouterProcess &) = delete;
    RouterProcess &operator=(const RouterProcess &) = delete;

    /** Spawn the router and read its port. @return false with @p err
     *  set when it did not come up. */
    bool
    start(const std::string &path, std::string *err)
    {
        int fds[2];
        if (::pipe2(fds, O_CLOEXEC) != 0) {
            *err = std::string("pipe: ") + std::strerror(errno);
            return false;
        }
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
        // --max-batch 1: two same-source requests meeting in a queue
        // would coalesce and the second would fail its cycle check.
        std::vector<std::string> args = {
            path, "--port", "0", "--workers", "2", "--workers-per-shard",
            "1",  "--max-batch", "1"};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        int rc = ::posix_spawn(&pid_, path.c_str(), &fa, nullptr,
                               argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        ::close(fds[1]);
        out_ = fds[0];
        if (rc != 0) {
            pid_ = -1;
            *err = "cannot start " + path + ": " + std::strerror(rc);
            return false;
        }
        std::string line;
        Clock::time_point give_up = Clock::now() + std::chrono::seconds(20);
        while (line.find('\n') == std::string::npos) {
            pollfd p{out_, POLLIN, 0};
            if (Clock::now() > give_up || ::poll(&p, 1, 100) < 0) {
                *err = "router did not report its port";
                return false;
            }
            char buf[256];
            if ((p.revents & (POLLIN | POLLHUP)) == 0)
                continue;
            ssize_t n = ::read(out_, buf, sizeof buf);
            if (n <= 0) {
                *err = "router exited before listening";
                return false;
            }
            line.append(buf, static_cast<std::size_t>(n));
        }
        unsigned port = 0;
        std::size_t colon = line.rfind(':');
        if (colon != std::string::npos)
            port = static_cast<unsigned>(
                std::strtoul(line.c_str() + colon + 1, nullptr, 10));
        if (port == 0 || port > 65535) {
            *err = "unexpected router banner: " + line;
            return false;
        }
        port_ = static_cast<std::uint16_t>(port);
        return true;
    }

    std::uint16_t port() const { return port_; }

    /** Peak RSS of the router plus its worker processes, MiB. */
    double
    peakRssMb() const
    {
        if (pid_ <= 0)
            return 0.0;
        double total = perfbench::peakRssMb(pid_);
        for (pid_t c : childrenOf(pid_))
            total += perfbench::peakRssMb(c);
        return total;
    }

    /** Drain (SIGTERM) and reap. @return true when the router exited
     *  0, i.e. every worker drained cleanly. */
    bool
    stop()
    {
        if (pid_ <= 0)
            return true;
        std::vector<pid_t> workers = childrenOf(pid_);
        ::kill(pid_, SIGTERM);
        int status = 0;
        bool reaped = false;
        Clock::time_point give_up =
            Clock::now() + std::chrono::seconds(15);
        while (Clock::now() < give_up) {
            pid_t r = ::waitpid(pid_, &status, WNOHANG);
            if (r == pid_ || r < 0) {
                reaped = r == pid_;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        if (!reaped) {
            for (pid_t w : workers)
                ::kill(w, SIGKILL);
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, &status, 0);
        }
        pid_ = -1;
        if (out_ >= 0)
            ::close(out_);
        out_ = -1;
        return reaped && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

  private:
    pid_t pid_ = -1;
    int out_ = -1;
    std::uint16_t port_ = 0;
};

/** One workload's system under test. */
class Runner
{
  public:
    Runner(const Stream &stream, const References &refs)
        : stream_(stream), refs_(refs)
    {
    }
    virtual ~Runner() = default;

    Runner(const Runner &) = delete;
    Runner &operator=(const Runner &) = delete;

    /**
     * Build the system, run the reference checks and prime it.
     * @return problems found (empty when all is well).
     */
    virtual std::vector<std::string> setUp() = 0;

    /** Stop the system. @return problems found. */
    virtual std::vector<std::string> tearDown() = 0;

    /**
     * Measure @p seconds, drawing requests from stream index @p next
     * on (advanced past the last one sent). Spans go to fresh logs
     * appended to @p logs when @p traced.
     */
    virtual Window measure(double seconds, std::uint64_t &next,
                           bool traced, std::deque<SpanLog> &logs) = 0;

    /** Peak RSS of whatever serves the requests, MiB. */
    virtual double peakRss() const = 0;

  protected:
    /**
     * The reference checks of set-up: every row the stream draws
     * from, plus the stack-VM row of each COM program (the cross-check
     * of the two back ends).
     */
    std::vector<std::string>
    referenceChecks() const
    {
        std::vector<std::size_t> rows = stream_.rows();
        std::vector<std::size_t> all = rows;
        for (std::size_t r : rows)
            if (refs_[r].kind == EngineKind::Com) {
                std::size_t s =
                    refs_.find(EngineKind::Stack, refs_[r].program);
                if (std::find(all.begin(), all.end(), s) == all.end())
                    all.push_back(s);
                if (refs_[s].result != refs_[r].result ||
                    refs_[s].outputHash != refs_[r].outputHash)
                    return {"pinned COM and stack results of " +
                            refs_[r].program + " differ"};
            }
        return refs_.verifyRows(all);
    }

    SpanLog &
    newLog(std::deque<SpanLog> &logs, bool traced)
    {
        logs.emplace_back(traced,
                          static_cast<std::uint32_t>(logs.size() + 1));
        return logs.back();
    }

    const Stream &stream_;
    const References &refs_;
};

// ----------------------------------------------------------------------
// hot_wire
// ----------------------------------------------------------------------

class HotWire : public Runner
{
  public:
    HotWire(const Stream &s, const References &r, std::string routerd)
        : Runner(s, r), routerd_(std::move(routerd))
    {
    }

    std::vector<std::string>
    setUp() override
    {
        std::vector<std::string> bad = referenceChecks();
        // Without a router there is nothing to measure: fail the run.
        std::string err;
        if (!router_.start(routerd_, &err))
            com::sim::fatal("perfbench: ", err);
        net::Client::Config cfg;
        cfg.port = router_.port();
        clients_.clear();
        for (unsigned c = 0; c <= kClosedLoopClients; ++c) {
            clients_.push_back(std::make_unique<net::Client>());
            if (!clients_.back()->connect(cfg))
                com::sim::fatal("perfbench: connect: ",
                                clients_.back()->error());
        }
        // Prime: one request per source warms the owning worker's
        // program cache (the router hashes sources to workers).
        for (std::size_t row : stream_.rows()) {
            serve::Response r =
                clients_[0]->run(refs_[row].kind, refs_[row].spec);
            std::string why =
                r.ok() ? refs_.check(row, r.outcome) : r.error;
            if (!why.empty())
                bad.push_back("priming " + refs_[row].program + ": " +
                              why);
        }
        return bad;
    }

    std::vector<std::string>
    tearDown() override
    {
        clients_.clear();
        if (!router_.stop())
            return {"router did not drain cleanly"};
        return {};
    }

    Window
    measure(double seconds, std::uint64_t &next, bool traced,
            std::deque<SpanLog> &logs) override
    {
        net::Client &probe = *clients_[kClosedLoopClients];
        serve::Metrics::Snapshot before, after;
        bool counters = probe.metrics(&before);

        std::atomic<std::uint64_t> counter{next};
        std::vector<Window> local(kClosedLoopClients);
        std::vector<SpanLog *> log;
        for (unsigned c = 0; c < kClosedLoopClients; ++c)
            log.push_back(&newLog(logs, traced));
        Clock::time_point start = Clock::now();
        Clock::time_point end =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
        auto client = [&](unsigned c) {
            net::Client &conn = *clients_[c];
            Window &w = local[c];
            SpanLog &spans = *log[c];
            while (Clock::now() < end) {
                Item item = stream_.at(counter.fetch_add(1));
                std::uint64_t root = spans.reserve(item.index, "request");
                Clock::time_point t0 = Clock::now();
                if (traced) {
                    // The codec, timed on the very frame the client is
                    // about to build and send.
                    net::RunRequestFrame f = net::RunRequestFrame::fromSpec(
                        item.index, item.kind, item.spec, 0,
                        item.priority);
                    Clock::time_point e0 = Clock::now();
                    std::string frame = net::encodeRunRequest(f);
                    Clock::time_point e1 = Clock::now();
                    spans.add(item.index, "net.encode", root, e0, e1);
                    w.encodeUs.push_back(us(e0, e1));
                }
                Clock::time_point r0 = Clock::now();
                serve::Response r = conn.run(item.kind, item.spec, 0,
                                             item.priority);
                Clock::time_point r1 = Clock::now();
                spans.add(item.index, "net.rtt", root, r0, r1);
                if (traced) {
                    std::string frame = net::encodeRunResponse(
                        net::RunResponseFrame::fromResponse(item.index,
                                                            r));
                    Clock::time_point d0 = Clock::now();
                    net::FrameView view;
                    std::size_t used = 0;
                    net::RunResponseFrame decoded;
                    bool good =
                        net::peekFrame(frame, &view, &used) ==
                            net::DecodeStatus::Frame &&
                        net::decodeRunResponse(view, &decoded);
                    Clock::time_point d1 = Clock::now();
                    spans.add(item.index, "net.decode", root, d0, d1);
                    w.decodeUs.push_back(us(d0, d1));
                    if (!good || decoded.output != r.outcome.output) {
                        ++w.attempted;
                        ++w.failed;
                        std::fprintf(stderr,
                                     "perfbench: FAIL request %" PRIu64
                                     ": response frame did not round-"
                                     "trip\n",
                                     item.index);
                        continue;
                    }
                }
                spans.close(root, t0, Clock::now());
                w.rttMs.push_back(secondsBetween(r0, r1) * 1e3);
                w.record(item, r, secondsBetween(start, r1),
                         secondsBetween(r0, r1), refs_);
            }
        };
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kClosedLoopClients; ++c)
            threads.emplace_back(client, c);
        for (std::thread &t : threads)
            t.join();

        Window w;
        w.seconds = seconds;
        for (Window &l : local)
            merge(w, std::move(l));
        next = counter.load();
        if (counters && probe.metrics(&after))
            w.server = ServerWindow::between(before, after);
        return w;
    }

    double peakRss() const override { return router_.peakRssMb(); }

  private:
    std::string routerd_;
    RouterProcess router_;
    /** kClosedLoopClients load connections, then the metrics probe. */
    std::vector<std::unique_ptr<net::Client>> clients_;
};

// ----------------------------------------------------------------------
// In-process workloads
// ----------------------------------------------------------------------

double
selfPeakRssMb()
{
    return peakRssMb(::getpid());
}

class ColdSim : public Runner
{
  public:
    using Runner::Runner;

    std::vector<std::string>
    setUp() override
    {
        std::vector<std::string> bad = referenceChecks();
        serve::Scheduler::Config cfg;
        cfg.shards = 2;
        cfg.workersPerShard = 1;
        sched_ = std::make_unique<serve::Scheduler>(cfg);
        return bad;
    }

    std::vector<std::string>
    tearDown() override
    {
        sched_.reset();
        return {};
    }

    Window
    measure(double seconds, std::uint64_t &next, bool traced,
            std::deque<SpanLog> &logs) override
    {
        serve::Metrics::Snapshot before = sched_->metricsSnapshot();
        std::atomic<std::uint64_t> counter{next};
        std::vector<Window> local(kClosedLoopClients);
        std::vector<SpanLog *> log;
        for (unsigned c = 0; c < kClosedLoopClients; ++c)
            log.push_back(&newLog(logs, traced));
        Clock::time_point start = Clock::now();
        Clock::time_point end =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
        auto client = [&](unsigned c) {
            Window &w = local[c];
            SpanLog &spans = *log[c];
            while (Clock::now() < end) {
                Item item = stream_.at(counter.fetch_add(1));
                Clock::time_point t0 = Clock::now();
                std::future<serve::Response> f =
                    sched_->submit(item.kind, std::move(item.spec),
                                   serve::kNoDeadline, item.priority);
                Clock::time_point t1 = Clock::now();
                serve::Response r = f.get();
                Clock::time_point t2 = Clock::now();
                std::uint64_t root =
                    spans.add(item.index, "request", 0, t0, t2);
                spans.add(item.index, "serve.submit", root, t0, t1);
                spans.add(item.index, "serve.wait", root, t1, t2);
                w.submitUs.push_back(us(t0, t1));
                w.record(item, r, secondsBetween(start, t2),
                         secondsBetween(t0, t2), refs_);
            }
        };
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kClosedLoopClients; ++c)
            threads.emplace_back(client, c);
        for (std::thread &t : threads)
            t.join();

        Window w;
        w.seconds = seconds;
        for (Window &l : local)
            merge(w, std::move(l));
        next = counter.load();
        w.server = ServerWindow::between(before, sched_->metricsSnapshot());
        return w;
    }

    double peakRss() const override { return selfPeakRssMb(); }

  private:
    std::unique_ptr<serve::Scheduler> sched_;
};

class Overload : public Runner
{
  public:
    using Runner::Runner;

    std::vector<std::string>
    setUp() override
    {
        std::vector<std::string> bad = referenceChecks();
        serve::Scheduler::Config cfg;
        cfg.shards = 1;
        cfg.workersPerShard = 3;
        cfg.agingMs = kOverloadAgingMs;
        cfg.queueCapacity = kOverloadQueue;
        // A coalesced COM request runs on a non-pristine engine and
        // reports guest cycles accumulated since the session reset,
        // which fails the cycle check (see NOTES.md).
        cfg.maxBatch = 1;
        sched_ = std::make_unique<serve::Scheduler>(cfg);
        // Prime the hot programs (cold cards are unique by design).
        for (const Stream::Card &card : stream_.cards()) {
            if (card.cold)
                continue;
            const Pinned &p = refs_[card.ref];
            serve::Response r = sched_->submit(p.kind, p.spec).get();
            std::string why =
                r.ok() ? refs_.check(card.ref, r.outcome) : r.error;
            if (!why.empty())
                bad.push_back("priming " + p.program + ": " + why);
        }
        return bad;
    }

    std::vector<std::string>
    tearDown() override
    {
        sched_.reset();
        return {};
    }

    Window
    measure(double seconds, std::uint64_t &next, bool traced,
            std::deque<SpanLog> &logs) override
    {
        struct Pending
        {
            Item item;
            std::future<serve::Response> future;
            Clock::time_point due, sent;
        };
        serve::Metrics::Snapshot before = sched_->metricsSnapshot();
        SpanLog &spans = newLog(logs, traced);
        std::vector<Pending> pending;
        pending.reserve(static_cast<std::size_t>(seconds *
                                                 stream_.rate()) +
                        16);
        Window w;
        Clock::time_point start = Clock::now();
        for (std::uint64_t k = 0;; ++k) {
            double at = static_cast<double>(k) / stream_.rate();
            if (at >= seconds)
                break;
            Pending p;
            p.item = stream_.at(next + k);
            p.due = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(at));
            std::this_thread::sleep_until(p.due);
            p.sent = Clock::now();
            p.future = sched_->trySubmit(p.item.kind,
                                         std::move(p.item.spec),
                                         serve::kNoDeadline,
                                         p.item.priority);
            Clock::time_point t1 = Clock::now();
            w.submitUs.push_back(us(p.sent, t1));
            w.lagMs.push_back(secondsBetween(p.due, p.sent) * 1e3);
            if (traced)
                spans.add(p.item.index, "serve.submit", 0, p.sent, t1);
            pending.push_back(std::move(p));
        }
        next += pending.size();
        for (Pending &p : pending) {
            serve::Response r = p.future.get();
            // Latency runs from the due time: a late generator or a
            // stalled submit counts against the request.
            double latency =
                secondsBetween(p.due, p.sent) + r.latencySeconds;
            if (traced) {
                auto done = p.sent +
                            std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(
                                    r.latencySeconds));
                std::uint64_t root =
                    spans.add(p.item.index, "request", 0, p.due, done);
                spans.add(p.item.index, "serve.complete", root, p.sent,
                          done);
            }
            w.record(p.item, r, secondsBetween(start, p.due), latency,
                     refs_);
        }
        w.seconds = seconds;
        w.server = ServerWindow::between(before, sched_->metricsSnapshot());
        return w;
    }

    double peakRss() const override { return selfPeakRssMb(); }

  private:
    std::unique_ptr<serve::Scheduler> sched_;
};

/**
 * Guest cycles per instruction over one deck of the stream, from the
 * (ops, cycles) the served responses reported. Every deck has the same
 * composition, so this is exact for any seed. @return 0 when some COM
 * card was never served.
 */
double
deckCpi(const Stream &stream, const References &refs, const Window &w)
{
    double ops = 0.0, cycles = 0.0;
    for (const Stream::Card &card : stream.cards()) {
        if (refs[card.ref].kind != EngineKind::Com)
            continue;
        auto it = w.observed.find(card.ref);
        if (it == w.observed.end())
            return 0.0;
        ops += static_cast<double>(it->second.first);
        cycles += static_cast<double>(it->second.second);
    }
    return ops > 0.0 ? cycles / ops : 0.0;
}

void
addProblems(RunReport &report, const std::vector<std::string> &bad)
{
    for (const std::string &b : bad) {
        report.correct = false;
        std::fprintf(stderr, "perfbench: %s\n", b.c_str());
    }
}

} // namespace

RunReport
runWorkload(const RunOptions &opt, const References &refs)
{
    RunReport report;
    Stream stream(opt.workload, opt.seed, refs);
    std::unique_ptr<Runner> runner;
    switch (opt.workload) {
      case Workload::HotWire:
        runner = std::make_unique<HotWire>(stream, refs, opt.routerdPath);
        break;
      case Workload::ColdSim:
        runner = std::make_unique<ColdSim>(stream, refs);
        break;
      case Workload::Overload:
        runner = std::make_unique<Overload>(stream, refs);
        break;
    }

    Clock::time_point epoch = Clock::now();
    std::vector<double> setups;
    auto setUp = [&] {
        Clock::time_point t0 = Clock::now();
        addProblems(report, runner->setUp());
        setups.push_back(secondsBetween(t0, Clock::now()));
    };
    // Set-ups before and after the window: this host's CPUs switch
    // between a fast and a ~1.7x slower state every few seconds, and
    // set-ups spread over the run see both in their usual proportion.
    for (unsigned s = 0; s < kSetups / 2; ++s) {
        if (s > 0)
            addProblems(report, runner->tearDown());
        setUp();
    }

    std::deque<SpanLog> logs;
    std::uint64_t next = 0;
    auto add = [&report](const char *name, double value,
                         const char *unit) {
        report.metrics.push_back({name, value, unit});
    };

    if (!opt.trace) {
        const auto ticks0 = cpuTicks();
        Window w = runner->measure(opt.seconds, next, false, logs);
        const auto ticks1 = cpuTicks();
        double rss = runner->peakRss();
        addProblems(report, runner->tearDown());
        while (setups.size() < kSetups) {
            setUp();
            addProblems(report, runner->tearDown());
        }

        const Summary sum = w.summarize();
        const double attempted =
            std::max<double>(1.0, static_cast<double>(w.attempted));
        double cpi = deckCpi(stream, refs, w);
        if (cpi == 0.0)
            addProblems(report, {"a COM program of the mix was never "
                                 "served; sim_cpi is incomplete"});
        add("throughput_rps", sum.throughput, "1/s");
        add("latency_p50_ms", sum.p50Ms, "ms");
        add("latency_p90_ms", sum.p90Ms, "ms");
        add("correct_frac",
            1.0 - static_cast<double>(w.failed) / attempted, "frac");
        add("admitted_frac",
            1.0 - static_cast<double>(w.shed) / attempted, "frac");
        add("guest_mips", sum.guestMips, "Minstr/s");
        add("sim_cpi", cpi, "cycles/instr");
        add("slo_attained",
            w.interactiveAttempted
                ? static_cast<double>(w.interactiveMet) /
                      static_cast<double>(w.interactiveAttempted)
                : 1.0,
            "frac");
        add("interactive_p90_ms", sum.interactiveP90Ms, "ms");
        add("setup_s", median(setups), "s");
        add("peak_rss_mb", rss, "MiB");

        const double ticks = ticks1.second - ticks0.second;
        char line[320];
        std::snprintf(line, sizeof line,
                      "%" PRIu64 " verified of %" PRIu64
                      " attempted; timing metrics are means of the middle "
                      "half of %u sub-windows of %.2f s, each with >= %zu "
                      "samples (p90: >= %zu beyond it); sub-window "
                      "throughput %.1f..%.1f; host steal %.1f%% of CPU "
                      "time",
                      w.ok, w.attempted, kSubWindows,
                      w.seconds / kSubWindows, sum.samplesPerSubWindow,
                      sum.samplesPerSubWindow / 10, sum.minThroughput,
                      sum.maxThroughput,
                      ticks > 0.0
                          ? 100.0 * (ticks1.first - ticks0.first) / ticks
                          : 0.0);
        report.notes.push_back(line);
        report.attempted = w.attempted;
        report.failed = w.failed;
        if (w.failed > 0)
            report.correct = false;
        return report;
    }

    // Traced run: an untraced half, then a traced half on the same
    // system; their throughputs give the tracing overhead.
    Window u = runner->measure(opt.seconds / 2, next, false, logs);
    Window t = runner->measure(opt.seconds / 2, next, true, logs);
    addProblems(report, runner->tearDown());
    const double untraced_rps = u.summarize().throughput;
    const double traced_rps = t.summarize().throughput;

    const ServerWindow &sw = t.server;
    std::sort(t.rttMs.begin(), t.rttMs.end());
    std::sort(t.lagMs.begin(), t.lagMs.end());
    const bool wire = opt.workload == Workload::HotWire;
    const double rtt50 = percentile(t.rttMs, 0.50);
    const double server50 = wire ? sw.latency.p50Seconds * 1e3 : 0.0;
    add("net.encode_us", mean(t.encodeUs), "us");
    add("net.decode_us", mean(t.decodeUs), "us");
    add("net.rtt_p50_ms", rtt50, "ms");
    add("net.rtt_p99_ms", percentile(t.rttMs, 0.99), "ms");
    add("net.server_p50_ms", server50, "ms");
    add("net.residual_p50_ms", wire ? rtt50 - server50 : 0.0, "ms");
    add("serve.submit_us", mean(t.submitUs), "us");
    add("serve.queue_wait_p50_ms", sw.queueWait.p50Seconds * 1e3, "ms");
    add("serve.queue_wait_p99_ms", sw.queueWait.p99Seconds * 1e3, "ms");
    add("serve.pool_wait_p50_ms", sw.poolWait.p50Seconds * 1e3, "ms");
    add("serve.exec_p50_ms", sw.execute.p50Seconds * 1e3, "ms");
    add("serve.exec_p99_ms", sw.execute.p99Seconds * 1e3, "ms");
    add("serve.verify_p50_ms", sw.verify.p50Seconds * 1e3, "ms");
    add("serve.batch_mean",
        sw.batches ? static_cast<double>(sw.batchedRequests) /
                         static_cast<double>(sw.batches)
                   : 0.0,
        "requests");
    add("serve.utilization",
        sw.workerSeconds > 0.0 ? sw.busySeconds / sw.workerSeconds : 0.0,
        "frac");
    add("serve.shed", static_cast<double>(sw.shed), "count");
    add("serve.expired", static_cast<double>(sw.expired), "count");
    const std::uint64_t lookups = sw.cacheHits + sw.cacheMisses;
    add("api.cache_hit_ratio",
        lookups ? static_cast<double>(sw.cacheHits) /
                      static_cast<double>(lookups)
                : 0.0,
        "frac");
    add("api.cache_evictions", static_cast<double>(sw.cacheEvictions),
        "count");
    add("api.warm_restore_mean_ms",
        sw.warmStarts ? static_cast<double>(sw.warmStartNanos) / 1e6 /
                            static_cast<double>(sw.warmStarts)
                      : 0.0,
        "ms");
    add("loadgen.lag_p99_ms", percentile(t.lagMs, 0.99), "ms");
    add("trace.overhead_frac",
        untraced_rps > 0.0 ? 1.0 - traced_rps / untraced_rps : 0.0,
        "frac");

    SpanLog &layer_log = logs.emplace_back(
        true, static_cast<std::uint32_t>(logs.size() + 1));
    runLayerPass(stream, refs, layer_log, &report);

    std::vector<const SpanLog *> all;
    for (const SpanLog &l : logs)
        all.push_back(&l);
    if (!opt.traceOut.empty() && !writeSpans(opt.traceOut, epoch, all))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opt.traceOut.c_str());

    report.attempted = u.attempted + t.attempted;
    report.failed += u.failed + t.failed;
    if (report.failed > 0)
        report.correct = false;
    char line[160];
    std::snprintf(line, sizeof line,
                  "untraced %.1f req/s, traced %.1f req/s; %zu spans "
                  "written",
                  untraced_rps, traced_rps,
                  [&all] {
                      std::size_t n = 0;
                      for (const SpanLog *l : all)
                          n += l->spans().size();
                      return n;
                  }());
    report.notes.push_back(line);
    return report;
}

} // namespace perfbench
