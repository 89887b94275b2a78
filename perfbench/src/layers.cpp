/**
 * @file
 * The traced per-layer pass: the first two decks of a workload's
 * stream, one request at a time on private engines, timing each public
 * entry point the serving path crosses and reading the Machine's own
 * cache and pipeline counters.
 *
 * Every engine is reset before each request, so the guest counts are a
 * sum of independent runs: they depend only on the deck composition,
 * which makes them exact and the same for every seed.
 */

#include <cinttypes>
#include <cstdio>
#include <string>
#include <type_traits>

#include "bench.hpp"
#include "core/machine.hpp"
#include "lang/compiler_com.hpp"
#include "lang/compiler_stack.hpp"

namespace perfbench {

using com::api::EngineKind;

namespace {

/** Time and count of one timed entry point. */
struct Timer
{
    double seconds = 0.0;
    std::uint64_t calls = 0;

    /** Time @p fn, log it as @p layer under @p parent. */
    template <typename Fn>
    auto
    time(SpanLog &log, std::uint64_t request, const char *layer,
         std::uint64_t parent, Fn &&fn)
    {
        Clock::time_point t0 = Clock::now();
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            finish(log, request, layer, parent, t0);
        } else {
            auto result = fn();
            finish(log, request, layer, parent, t0);
            return result;
        }
    }

    double
    meanUs() const
    {
        return calls ? seconds / static_cast<double>(calls) * 1e6 : 0.0;
    }

  private:
    void
    finish(SpanLog &log, std::uint64_t request, const char *layer,
           std::uint64_t parent, Clock::time_point t0)
    {
        Clock::time_point t1 = Clock::now();
        seconds += secondsBetween(t0, t1);
        ++calls;
        log.add(request, layer, parent, t0, t1);
    }
};

/** Guest instructions and host seconds of a set of runs. */
struct Rate
{
    double ops = 0.0;
    double seconds = 0.0;

    double mips() const { return seconds > 0.0 ? ops / seconds / 1e6 : 0.0; }
};

/** The Machine counters the pass reads, as one value set. */
struct GuestCounters
{
    std::uint64_t itlbHits = 0, itlbMisses = 0;
    std::uint64_t icacheHits = 0, icacheMisses = 0;
    std::uint64_t atlbHits = 0, atlbMisses = 0;
    std::uint64_t ctxForced = 0;
    std::uint64_t stallItlb = 0, stallIcache = 0, stallAtlb = 0,
                  stallMemory = 0, stallCtx = 0;

    static GuestCounters
    of(com::core::Machine &m)
    {
        GuestCounters c;
        c.itlbHits = m.itlb().hits();
        c.itlbMisses = m.itlb().misses();
        c.icacheHits = m.icache().hits();
        c.icacheMisses = m.icache().misses();
        c.atlbHits = m.atlb().stats().counterValue("hits");
        c.atlbMisses = m.atlb().stats().counterValue("misses");
        c.ctxForced = m.contextCache().forcedEvictions();
        const com::core::Pipeline &p = m.pipeline();
        c.stallItlb = p.itlbStalls();
        c.stallIcache = p.icacheStalls();
        c.stallAtlb = p.atlbStalls();
        c.stallMemory = p.memoryStalls();
        c.stallCtx = p.contextStalls();
        return c;
    }

    void
    addDelta(const GuestCounters &after, const GuestCounters &before)
    {
        itlbHits += after.itlbHits - before.itlbHits;
        itlbMisses += after.itlbMisses - before.itlbMisses;
        icacheHits += after.icacheHits - before.icacheHits;
        icacheMisses += after.icacheMisses - before.icacheMisses;
        atlbHits += after.atlbHits - before.atlbHits;
        atlbMisses += after.atlbMisses - before.atlbMisses;
        ctxForced += after.ctxForced - before.ctxForced;
        stallItlb += after.stallItlb - before.stallItlb;
        stallIcache += after.stallIcache - before.stallIcache;
        stallAtlb += after.stallAtlb - before.stallAtlb;
        stallMemory += after.stallMemory - before.stallMemory;
        stallCtx += after.stallCtx - before.stallCtx;
    }
};

double
ratio(std::uint64_t hits, std::uint64_t misses)
{
    return hits + misses ? static_cast<double>(hits) /
                               static_cast<double>(hits + misses)
                         : 0.0;
}

/** 0 = call-heavy, 1 = loop-heavy, 2 = send-heavy. */
int
category(const std::string &program)
{
    for (const char *p : {"fib", "bintree", "bank", "richards"})
        if (program == p)
            return 0;
    for (const char *p : {"sieve", "matrix", "nqueens"})
        if (program == p)
            return 1;
    return 2;
}

} // namespace

void
runLayerPass(const Stream &stream, const References &refs, SpanLog &log,
             RunReport *report)
{
    com::core::MachineConfig nosb_cfg;
    nosb_cfg.enableSuperblocks = false;
    com::api::ComEngine com_engine;
    com::api::ComEngine nosb_engine(nosb_cfg);
    com::api::StackEngine stack_engine;
    com::api::FithEngine fith_engine;

    Timer reset_com, reset_stack, reset_fith, compile_com, compile_stack,
        capture, restore, stack_exec, fith_exec;
    Rate by_category[3], nosb;
    GuestCounters guest;
    double superblocks_live = 0.0, store_invalidations = 0.0;
    std::uint64_t failures = 0;
    auto fail = [&](const Item &item, const std::string &why) {
        ++failures;
        std::fprintf(stderr,
                     "perfbench: FAIL layer pass request %" PRIu64
                     " %s: %s\n",
                     item.index, refs[item.ref].program.c_str(),
                     why.c_str());
    };

    const std::uint64_t n = 2 * stream.deckSize();
    for (std::uint64_t i = 0; i < n; ++i) {
        const Item item = stream.at(i);
        const Pinned &row = refs[item.ref];
        const std::uint64_t root = log.reserve(i, "layers.request");
        const Clock::time_point start = Clock::now();

        reset_com.time(log, i, "api.reset.com", root,
                       [&] { com_engine.reset(); });
        reset_stack.time(log, i, "api.reset.stack", root,
                         [&] { stack_engine.reset(); });
        reset_fith.time(log, i, "api.reset.fith", root,
                        [&] { fith_engine.reset(); });

        if (item.kind == EngineKind::Fith) {
            com::api::RunOutcome out = fith_exec.time(
                log, i, "fith.exec", root,
                [&] { return fith_engine.run(item.spec); });
            std::string why = refs.check(item.ref, out);
            if (!why.empty())
                fail(item, why);
            log.close(root, start, Clock::now());
            continue;
        }

        // A Smalltalk request: its source through both back ends.
        const std::string &src = item.spec.source;
        const Pinned &com_row =
            refs[refs.find(EngineKind::Com, row.program)];
        const Pinned &stack_row =
            refs[refs.find(EngineKind::Stack, row.program)];

        com::core::Machine &m = com_engine.machine();
        const GuestCounters before = GuestCounters::of(m);
        std::uint64_t entry = compile_com.time(
            log, i, "lang.compile_com", root, [&] {
                return com::lang::ComCompiler(m)
                    .compileSource(src)
                    .entryVaddr;
            });
        Clock::time_point r0 = Clock::now();
        com::core::RunResult run = m.call(
            entry, m.constants().nilWord(), {}, com::api::kDefaultMaxOps);
        Clock::time_point r1 = Clock::now();
        log.add(i, "core.run", root, r0, r1);
        Rate &rate = by_category[category(row.program)];
        rate.ops += static_cast<double>(run.instructions);
        rate.seconds += secondsBetween(r0, r1);
        guest.addDelta(GuestCounters::of(m), before);
        superblocks_live +=
            static_cast<double>(m.superblockCache().size());
        store_invalidations += static_cast<double>(
            m.superblockCache().storeInvalidations());

        std::string result = m.describeWord(m.lastResult());
        if (!run.finished || run.instructions != com_row.ops ||
            run.cycles != com_row.cycles || result != com_row.result ||
            fnv1a(m.output()) != com_row.outputHash)
            fail(item, "COM run differs from the pinned reference");

        const std::uint64_t cycles = m.pipeline().cycles();
        auto image = capture.time(log, i, "api.capture", root,
                                  [&] { return m.captureImage(); });
        com_engine.reset();
        restore.time(log, i, "api.restore", root,
                     [&] { m.restoreImage(*image); });
        if (m.pipeline().cycles() != cycles)
            fail(item, "restored image lost pipeline state");

        com::core::Machine &plain = nosb_engine.machine();
        nosb_engine.reset();
        std::uint64_t plain_entry =
            com::lang::ComCompiler(plain).compileSource(src).entryVaddr;
        Clock::time_point p0 = Clock::now();
        com::core::RunResult plain_run =
            plain.call(plain_entry, plain.constants().nilWord(), {},
                       com::api::kDefaultMaxOps);
        Clock::time_point p1 = Clock::now();
        log.add(i, "core.run_nosb", root, p0, p1);
        nosb.ops += static_cast<double>(plain_run.instructions);
        nosb.seconds += secondsBetween(p0, p1);
        if (plain_run.instructions != run.instructions ||
            plain_run.cycles != run.cycles)
            fail(item, "superblocks on and off disagree");

        com::lang::StackVm &vm = stack_engine.vm();
        com::lang::StackCompiled compiled = compile_stack.time(
            log, i, "lang.compile_stack", root, [&] {
                return com::lang::StackCompiler(vm).compileSource(src);
            });
        com::lang::SResult sr = stack_exec.time(
            log, i, "lang.stack_exec", root, [&] {
                return vm.run(compiled.entry, com::api::kDefaultMaxOps);
            });
        // The cross-check of the two back ends on this very source.
        if (!sr.ok || sr.bytecodes != stack_row.ops ||
            sr.cycles != stack_row.cycles ||
            fnv1a(vm.output()) != com_row.outputHash ||
            !(sr.result.isInt() && row.spec.hasExpected &&
              sr.result.asInt() == row.spec.expected))
            fail(item, "stack VM run differs from the COM reference");
        log.close(root, start, Clock::now());
    }

    auto add = [report](const char *name, double value,
                        const char *unit) {
        report->metrics.push_back({name, value, unit});
    };
    add("api.capture_us", capture.meanUs(), "us");
    add("api.restore_us", restore.meanUs(), "us");
    add("api.reset_us.com", reset_com.meanUs(), "us");
    add("api.reset_us.stack", reset_stack.meanUs(), "us");
    add("api.reset_us.fith", reset_fith.meanUs(), "us");
    add("lang.compile_com_us", compile_com.meanUs(), "us");
    add("lang.compile_stack_us", compile_stack.meanUs(), "us");
    add("lang.stack_exec_us", stack_exec.meanUs(), "us");
    add("fith.exec_us", fith_exec.meanUs(), "us");
    add("core.mips.call", by_category[0].mips(), "Minstr/s");
    add("core.mips.loop", by_category[1].mips(), "Minstr/s");
    add("core.mips.send", by_category[2].mips(), "Minstr/s");
    add("core.mips_nosb", nosb.mips(), "Minstr/s");
    add("core.superblocks_live", superblocks_live, "count");
    add("core.store_invalidations", store_invalidations, "count");
    add("cache.itlb_hit_ratio", ratio(guest.itlbHits, guest.itlbMisses),
        "frac");
    add("cache.icache_hit_ratio",
        ratio(guest.icacheHits, guest.icacheMisses), "frac");
    add("cache.atlb_hit_ratio", ratio(guest.atlbHits, guest.atlbMisses),
        "frac");
    add("cache.ctx_forced_evictions",
        static_cast<double>(guest.ctxForced), "count");
    add("cache.stall_cycles.itlb", static_cast<double>(guest.stallItlb),
        "cycles");
    add("cache.stall_cycles.icache",
        static_cast<double>(guest.stallIcache), "cycles");
    add("cache.stall_cycles.atlb", static_cast<double>(guest.stallAtlb),
        "cycles");
    add("cache.stall_cycles.memory",
        static_cast<double>(guest.stallMemory), "cycles");
    add("cache.stall_cycles.ctx", static_cast<double>(guest.stallCtx),
        "cycles");

    report->failed += failures;
    if (failures > 0)
        report->correct = false;
}

} // namespace perfbench
