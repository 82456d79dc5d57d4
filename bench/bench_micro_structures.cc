/**
 * @file
 * google-benchmark microbenchmarks for the hot simulator structures:
 * cache lookup/fill, DDG retirement, critical-table queries, branch
 * prediction, DRAM access, issue-calendar and busy-timeline scheduling
 * and end-to-end simulation throughput.
 */

#include <benchmark/benchmark.h>

#include "cache/cache.hh"
#include "common/busy_timeline.hh"
#include "common/issue_calendar.hh"
#include "common/rng.hh"
#include "core/branch_predictor.hh"
#include "criticality/ddg.hh"
#include "dram/dram.hh"
#include "sim/configs.hh"
#include "sim/simulator.hh"

using namespace catchsim;

static void
BM_CacheLookupHit(benchmark::State &state)
{
    Cache c("bm", CacheGeometry{32 * 1024, 8, 5});
    for (Addr a = 0; a < 32 * 1024; a += 64)
        c.fill(a, false, 0, FillSource::Demand);
    Rng rng(1);
    for (auto _ : state) {
        Addr a = (rng.next() % 512) * 64;
        benchmark::DoNotOptimize(c.lookup(a));
    }
}
BENCHMARK(BM_CacheLookupHit);

static void
BM_CacheFillEvict(benchmark::State &state)
{
    Cache c("bm", CacheGeometry{32 * 1024, 8, 5});
    Rng rng(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            c.fill((rng.next() % 65536) * 64, false, 0,
                   FillSource::Demand));
}
BENCHMARK(BM_CacheFillEvict);

static void
BM_DdgRetire(benchmark::State &state)
{
    CriticalityConfig cfg;
    cfg.enabled = true;
    DdgCriticalityDetector det(cfg, 224, 2, 14, 4);
    Rng rng(3);
    SeqNum seq = 0;
    Cycle t = 0;
    for (auto _ : state) {
        RetireInfo ri;
        ri.seq = ++seq;
        ri.pc = 0x400000 + (rng.next() % 64) * 4;
        ri.cls = (seq % 3) ? OpClass::Alu : OpClass::Load;
        ri.servedBy = (seq % 9) ? Level::L1 : Level::L2;
        ri.allocCycle = t;
        ri.execStart = t + 2;
        ri.execDone = t + 2 + (seq % 5 ? 1 : 16);
        ri.retireCycle = ri.execDone + 1;
        ri.srcSeq[0] = seq > 4 ? seq - 3 : 0;
        det.onRetire(ri);
        ++t;
    }
}
BENCHMARK(BM_DdgRetire);

static void
BM_CriticalTableQuery(benchmark::State &state)
{
    CriticalityConfig cfg;
    CriticalTable table(cfg);
    for (Addr pc = 0; pc < 32; ++pc)
        for (int i = 0; i < 4; ++i)
            table.record(0x400000 + pc * 4);
    Rng rng(4);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            table.isCritical(0x400000 + (rng.next() % 64) * 4));
}
BENCHMARK(BM_CriticalTableQuery);

static void
BM_BranchPredict(benchmark::State &state)
{
    BranchPredictor bp;
    Rng rng(5);
    MicroOp op;
    op.cls = OpClass::Branch;
    for (auto _ : state) {
        op.pc = 0x400000 + (rng.next() % 256) * 4;
        op.taken = rng.percent(70);
        op.target = 0x500000;
        benchmark::DoNotOptimize(bp.predictAndTrain(op));
    }
}
BENCHMARK(BM_BranchPredict);

static void
BM_DramRead(benchmark::State &state)
{
    Dram dram(DramConfig{});
    Rng rng(6);
    Cycle t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(dram.read(rng.next() % (1 << 28), t));
        t += 20;
    }
}
BENCHMARK(BM_DramRead);

static void
BM_IssueCalendar(benchmark::State &state)
{
    IssueCalendar cal(3);
    Cycle t = 0;
    Rng rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(cal.schedule(t + rng.next() % 64));
        ++t;
    }
}
BENCHMARK(BM_IssueCalendar);

/**
 * The port ring's worst case: a whole ROB (224 ops) ready in the same
 * cycle on 3 ports. Each op scans the full cycles the ones before it
 * filled, one byte per cycle, so a burst costs about 224 * 75 / 2
 * probes.
 */
static void
BM_IssueCalendarRobBurst(benchmark::State &state)
{
    constexpr int kRob = 224;
    IssueCalendar cal(3);
    Cycle t = 0;
    for (auto _ : state) {
        for (int i = 0; i < kRob; ++i)
            benchmark::DoNotOptimize(cal.schedule(t));
        t += kRob / 3 + 1;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            kRob);
}
BENCHMARK(BM_IssueCalendarRobBurst);

/**
 * A contended DRAM bank: one port, each command an 80-cycle row-miss
 * claim, arriving behind a backlog of about 8000 already-busy cycles
 * that new claims keep at that depth. A per-cycle scan steps over the
 * whole backlog on every call; the timeline finds its end in the
 * newest interval.
 */
static void
BM_BusyTimelineBacklog(benchmark::State &state)
{
    BusyTimeline bank;
    bank.schedule(0, 8000);
    Cycle t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bank.schedule(t, 80));
        t += 80;
    }
}
BENCHMARK(BM_BusyTimelineBacklog);

/** End-to-end simulated instructions per second (hmmer, baseline). */
static void
BM_SimulatorThroughput(benchmark::State &state)
{
    for (auto _ : state) {
        SimResult r = runWorkload(baselineSkx(), "hmmer", 50000, 10000);
        benchmark::DoNotOptimize(r.ipc);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            60000);
}
BENCHMARK(BM_SimulatorThroughput)->Unit(benchmark::kMillisecond);

