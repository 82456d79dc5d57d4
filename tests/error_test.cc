/**
 * @file
 * Tests for the typed error taxonomy (common/error.hh) and the JSON
 * writer/parser pair (common/json.hh) the results exporter, worker
 * protocol and result store are built on. The round-trip cases pin the
 * contract store replays depend on: u64 counters and %.17g doubles
 * survive write -> parse bit-for-bit, and malformed input always comes
 * back as a SimError, never UB. The DRAM-config cases pin that a
 * degenerate memory geometry is a Config error before any run starts.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/error.hh"
#include "common/json.hh"
#include "sim/configs.hh"
#include "sim/simulator.hh"

namespace catchsim
{
namespace
{

// --------------------------- SimError ----------------------------

TEST(SimErrorTaxonomy, CategoryNamesRoundTrip)
{
    for (ErrorCategory c :
         {ErrorCategory::Config, ErrorCategory::TraceCorrupt,
          ErrorCategory::IoTransient, ErrorCategory::BudgetExceeded,
          ErrorCategory::Internal}) {
        auto back = errorCategoryFromName(errorCategoryName(c));
        ASSERT_TRUE(back.has_value()) << errorCategoryName(c);
        EXPECT_EQ(*back, c);
    }
    EXPECT_FALSE(errorCategoryFromName("bogus").has_value());
    EXPECT_FALSE(errorCategoryFromName("").has_value());
}

TEST(SimErrorTaxonomy, OnlyIoTransientIsRetryable)
{
    for (ErrorCategory c :
         {ErrorCategory::Config, ErrorCategory::TraceCorrupt,
          ErrorCategory::BudgetExceeded, ErrorCategory::Internal}) {
        SimError e{c, ""};
        EXPECT_FALSE(e.transient()) << errorCategoryName(c);
    }
    SimError transient{ErrorCategory::IoTransient, ""};
    EXPECT_TRUE(transient.transient());
}

TEST(SimErrorTaxonomy, SimErrorConcatenatesHeterogeneousArgs)
{
    SimError e = simError(ErrorCategory::Config, "bad knob ", 42,
                          " (want <= ", 1.5, ")");
    EXPECT_EQ(e.category, ErrorCategory::Config);
    EXPECT_EQ(e.message, "bad knob 42 (want <= 1.5)");
}

// --------------------------- Expected ----------------------------

Expected<int>
half(int v)
{
    if (v % 2)
        return simError(ErrorCategory::Config, "odd value ", v);
    return v / 2;
}

TEST(Expected, ValueAndErrorSides)
{
    auto ok = half(8);
    ASSERT_TRUE(ok.ok());
    EXPECT_TRUE(static_cast<bool>(ok));
    EXPECT_EQ(ok.value(), 4);

    auto err = half(7);
    ASSERT_FALSE(err.ok());
    EXPECT_FALSE(static_cast<bool>(err));
    EXPECT_EQ(err.error().category, ErrorCategory::Config);
    EXPECT_EQ(err.error().message, "odd value 7");
}

TEST(Expected, MoveOutOfRvalue)
{
    Expected<std::string> e(std::string(64, 'x'));
    std::string s = std::move(e).value();
    EXPECT_EQ(s.size(), 64u);
}

TEST(Expected, VoidSpecialisation)
{
    Expected<void> ok;
    EXPECT_TRUE(ok.ok());
    Expected<void> bad = simError(ErrorCategory::Internal, "boom");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().message, "boom");
}

TEST(ExpectedDeathTest, ValueOnErrorAsserts)
{
    EXPECT_DEATH(
        {
            auto e = half(3);
            (void)e.value();
        },
        "value\\(\\) on error Expected");
}

TEST(ExpectedDeathTest, ErrorOnOkAsserts)
{
    EXPECT_DEATH(
        {
            auto e = half(4);
            (void)e.error();
        },
        "error\\(\\) on ok Expected");
}

// -------------------------- JsonWriter ---------------------------

TEST(Json, WriterParserRoundTrip)
{
    JsonWriter w;
    w.open();
    w.field("max_u64", static_cast<uint64_t>(UINT64_MAX));
    w.field("tenth", 0.1);
    w.field("tiny", 1e-300);
    w.field("name", std::string("quote\" back\\slash"));
    w.field("flag", true);
    const uint64_t counters[3] = {1, 0, (1ULL << 63) + 1};
    w.fieldArray("counters", counters, 3);
    w.object("nested");
    w.field("inner", static_cast<uint64_t>(7));
    w.close();
    w.rawField("spliced", "{\"a\":1}");
    w.close();

    auto doc = parseJson(w.str());
    ASSERT_TRUE(doc.ok());
    const JsonValue &v = doc.value();
    ASSERT_TRUE(v.isObject());

    ASSERT_NE(v.member("max_u64"), nullptr);
    EXPECT_EQ(v.member("max_u64")->asU64(), UINT64_MAX)
        << "u64 counters must survive above 2^53";
    ASSERT_NE(v.member("tenth"), nullptr);
    EXPECT_EQ(v.member("tenth")->asDouble(), 0.1)
        << "%.17g must round-trip the exact bit pattern";
    EXPECT_EQ(v.member("tiny")->asDouble(), 1e-300);
    ASSERT_NE(v.member("name"), nullptr);
    EXPECT_EQ(v.member("name")->asString(), "quote\" back\\slash");
    EXPECT_TRUE(v.member("flag")->asBool());

    const JsonValue *arr = v.member("counters");
    ASSERT_NE(arr, nullptr);
    ASSERT_TRUE(arr->isArray());
    ASSERT_EQ(arr->size(), 3u);
    EXPECT_EQ(arr->at(0)->asU64(), 1u);
    EXPECT_EQ(arr->at(2)->asU64(), (1ULL << 63) + 1);
    EXPECT_EQ(arr->at(3), nullptr) << "out-of-range index";

    const JsonValue *nested = v.member("nested");
    ASSERT_NE(nested, nullptr);
    ASSERT_TRUE(nested->isObject());
    EXPECT_EQ(nested->member("inner")->asU64(), 7u);

    const JsonValue *spliced = v.member("spliced");
    ASSERT_NE(spliced, nullptr);
    EXPECT_EQ(spliced->member("a")->asU64(), 1u);

    EXPECT_EQ(v.member("absent"), nullptr);
}

TEST(Json, NegativeAndFractionalNumbersParseAsDoubles)
{
    auto doc = parseJson("{\"a\":-5,\"b\":2.5e3}");
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc.value().member("a")->asDouble(), -5.0);
    EXPECT_EQ(doc.value().member("b")->asDouble(), 2500.0);
}

TEST(Json, MalformedInputIsARejectedSimError)
{
    // Every shape of damage a half-written record can take must
    // come back as a trace-corrupt error, never parse half a record.
    for (const char *bad :
         {"", "{\"a\":1", "{} junk", "{a:1}", "[1,2", "\"unterminated",
          "{\"a\":}", "nul", "{\"a\":1,}", "12x34"}) {
        auto doc = parseJson(bad);
        ASSERT_FALSE(doc.ok()) << "must reject: " << bad;
        EXPECT_EQ(doc.error().category, ErrorCategory::TraceCorrupt)
            << bad;
    }
}

TEST(Json, NestingDepthIsBounded)
{
    std::string deep(100, '[');
    auto doc = parseJson(deep);
    ASSERT_FALSE(doc.ok());
}

// -------------------------- DRAM config --------------------------

/**
 * Each mutation once passed validate(): a zero rank count or row size
 * divided by zero in the bank decode (SIGFPE), and a zero queue depth
 * or drain batch let the write queue grow past its reserved capacity.
 * Both validate() and a guarded run must report a Config error.
 */
void
expectDramConfigRejected(void (*mutate)(DramConfig &))
{
    SimConfig cfg = baselineSkx();
    mutate(cfg.dram);
    auto v = cfg.validate();
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.error().category, ErrorCategory::Config);
    Expected<SimResult> r = runWorkloadGuarded(
        cfg, "hpc.stream", 20000, 5000, RunBudget{}, FaultPlan{});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().category, ErrorCategory::Config)
        << r.error().message;
}

TEST(DramConfig, ZeroRanksPerChannelIsAConfigError)
{
    expectDramConfigRejected([](DramConfig &d) { d.ranksPerChannel = 0; });
}

TEST(DramConfig, RowSmallerThanALineIsAConfigError)
{
    expectDramConfigRejected([](DramConfig &d) { d.rowBytes = 0; });
    expectDramConfigRejected(
        [](DramConfig &d) { d.rowBytes = kLineBytes - 1; });
}

TEST(DramConfig, ZeroWriteQueueDepthIsAConfigError)
{
    expectDramConfigRejected([](DramConfig &d) { d.writeQueueDepth = 0; });
}

TEST(DramConfig, ZeroWriteDrainBatchIsAConfigError)
{
    expectDramConfigRejected([](DramConfig &d) { d.writeDrainBatch = 0; });
}

TEST(DramConfig, OneLineRowsStillValidate)
{
    SimConfig cfg = baselineSkx();
    cfg.dram.rowBytes = kLineBytes;
    cfg.dram.ranksPerChannel = 1;
    cfg.dram.writeQueueDepth = 1;
    cfg.dram.writeDrainBatch = 1;
    EXPECT_TRUE(cfg.validate().ok());
}

} // namespace
} // namespace catchsim
