/**
 * @file
 * Unit tests for the trace sink: attachment/guard semantics, category
 * gating, Chrome trace-event JSON shape, timestamp ordering.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/obs/json.hh"
#include "src/obs/telemetry.hh"
#include "src/obs/trace.hh"

using namespace griffin;
using obs::CatDrain;
using obs::CatFault;
using obs::CatNet;
using obs::TraceArgs;
using obs::TraceSession;

namespace {

/** @p t serialized on its own. */
std::string
traceJson(const TraceSession &t)
{
    std::ostringstream os;
    TraceSession::writeMerged(os, {&t});
    return os.str();
}

} // namespace

TEST(TraceSession, NothingActiveByDefault)
{
    EXPECT_EQ(TraceSession::active(), nullptr);
    EXPECT_EQ(TraceSession::activeFor(CatFault), nullptr);
}

TEST(TraceSession, AttachDetachRestoresPrevious)
{
    TraceSession outer;
    outer.attach();
    EXPECT_EQ(TraceSession::active(), &outer);
    {
        TraceSession inner;
        inner.attach();
        EXPECT_EQ(TraceSession::active(), &inner);
        inner.detach();
    }
    EXPECT_EQ(TraceSession::active(), &outer);
    outer.detach();
    EXPECT_EQ(TraceSession::active(), nullptr);
}

TEST(TraceSession, DestructorDetaches)
{
    {
        TraceSession t;
        t.attach();
        EXPECT_NE(TraceSession::active(), nullptr);
    }
    EXPECT_EQ(TraceSession::active(), nullptr);
}

TEST(TraceSession, CategoryMaskGatesActiveFor)
{
    TraceSession t(CatFault | CatDrain);
    t.attach();
    EXPECT_EQ(TraceSession::activeFor(CatFault), &t);
    EXPECT_EQ(TraceSession::activeFor(CatDrain), &t);
    EXPECT_EQ(TraceSession::activeFor(CatNet), nullptr);
    t.detach();
}

TEST(TraceSession, DefaultCategoriesExcludeHotOnes)
{
    TraceSession t; // defaults
    t.attach();
    EXPECT_NE(TraceSession::activeFor(CatFault), nullptr);
    EXPECT_EQ(TraceSession::activeFor(CatNet), nullptr);
    EXPECT_EQ(TraceSession::activeFor(obs::CatDca), nullptr);
    t.detach();
}

TEST(TraceSession, JsonIsWellFormedAndComplete)
{
    TraceSession t;
    t.beginProcess("run-one");
    t.instant(CatFault, "driver", "page_fault", 100,
              TraceArgs().add("page", std::uint64_t(7)));
    t.complete(CatDrain, "gpu1", "acud_drain", 200, 450,
               TraceArgs().add("pages", 3u));

    const auto doc = obs::json::Value::parse(traceJson(t));
    ASSERT_TRUE(doc.has_value()) << traceJson(t);
    const auto *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);

    int instants = 0, completes = 0, metas = 0;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const auto &e = events->at(i);
        const std::string ph = e.find("ph")->asString();
        if (ph == "i")
            ++instants;
        else if (ph == "X")
            ++completes;
        else if (ph == "M")
            ++metas;
    }
    EXPECT_EQ(instants, 1);
    EXPECT_EQ(completes, 1);
    // process_name for the run + thread_name per track (2 tracks).
    EXPECT_GE(metas, 3);
}

TEST(TraceSession, EventTimestampsAreMonotone)
{
    TraceSession t;
    t.beginProcess("run");
    // Emit out of order; serialization sorts.
    t.instant(CatFault, "a", "late", 500);
    t.instant(CatFault, "a", "early", 100);
    t.complete(CatFault, "b", "span", 200, 300);

    const auto doc = obs::json::Value::parse(traceJson(t));
    ASSERT_TRUE(doc.has_value());
    const auto *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    double prev = -1.0;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const auto &e = events->at(i);
        if (e.find("ph")->asString() == "M")
            continue; // metadata leads
        const double ts = e.find("ts")->asNumber();
        EXPECT_GE(ts, prev);
        prev = ts;
    }
}

TEST(TraceSession, CompleteEventCarriesDuration)
{
    TraceSession t;
    t.complete(CatFault, "x", "span", 100, 175);
    const auto doc = obs::json::Value::parse(traceJson(t));
    ASSERT_TRUE(doc.has_value());
    const auto *events = doc->find("traceEvents");
    for (std::size_t i = 0; i < events->size(); ++i) {
        const auto &e = events->at(i);
        if (e.find("ph")->asString() != "X")
            continue;
        EXPECT_DOUBLE_EQ(e.find("ts")->asNumber(), 100.0);
        EXPECT_DOUBLE_EQ(e.find("dur")->asNumber(), 75.0);
        return;
    }
    FAIL() << "no complete event found";
}

TEST(TraceSession, ProcessesSeparateRuns)
{
    TraceSession t;
    t.beginProcess("first");
    t.instant(CatFault, "driver", "a", 1);
    t.beginProcess("second");
    t.instant(CatFault, "driver", "b", 2);

    const auto doc = obs::json::Value::parse(traceJson(t));
    const auto *events = doc->find("traceEvents");
    double pid_a = -1, pid_b = -1;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const auto &e = events->at(i);
        if (e.find("ph")->asString() != "i")
            continue;
        if (e.find("name")->asString() == "a")
            pid_a = e.find("pid")->asNumber();
        if (e.find("name")->asString() == "b")
            pid_b = e.find("pid")->asNumber();
    }
    EXPECT_GE(pid_a, 0.0);
    EXPECT_GE(pid_b, 0.0);
    EXPECT_NE(pid_a, pid_b);
}

TEST(TraceSession, WriteMergedFoldsSessionsInSubmissionOrder)
{
    // Two per-run sessions merged into one document: pids renumbered
    // in session order, events interleaved by timestamp. The output
    // depends only on the session list, never on which thread (or in
    // which order) the sessions were filled — the property the bench
    // harness's --jobs byte-identity rests on.
    TraceSession a;
    a.beginProcess("MT/first-touch");
    a.instant(CatFault, "driver", "a1", 100);
    a.instant(CatFault, "driver", "a2", 300);

    TraceSession b;
    b.beginProcess("MT/griffin");
    b.instant(CatFault, "driver", "b1", 200);

    std::ostringstream ab;
    TraceSession::writeMerged(ab, {&a, &b});

    const auto doc = obs::json::Value::parse(ab.str());
    ASSERT_TRUE(doc.has_value()) << ab.str();
    const auto *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);

    // Metadata first (one process_name per session), then the three
    // instants in global timestamp order with distinct pids.
    std::vector<std::string> names;
    std::vector<double> pids;
    double prev_ts = -1.0;
    int process_metas = 0;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const auto &e = events->at(i);
        if (e.find("ph")->asString() == "M") {
            if (e.find("name")->asString() == "process_name")
                ++process_metas;
            continue;
        }
        const double ts = e.find("ts")->asNumber();
        EXPECT_GE(ts, prev_ts);
        prev_ts = ts;
        names.push_back(e.find("name")->asString());
        pids.push_back(e.find("pid")->asNumber());
    }
    EXPECT_EQ(process_metas, 2);
    EXPECT_EQ(names, (std::vector<std::string>{"a1", "b1", "a2"}));
    ASSERT_EQ(pids.size(), 3u);
    EXPECT_EQ(pids[0], pids[2]); // both from session a
    EXPECT_NE(pids[0], pids[1]); // session b got its own pid
}

TEST(TraceSession, WriteMergedIsDeterministicAcrossCalls)
{
    TraceSession a, b;
    a.beginProcess("one");
    b.beginProcess("two");
    a.instant(CatFault, "x", "e1", 10);
    b.instant(CatFault, "x", "e2", 10); // same timestamp: stable order

    std::ostringstream first, second;
    TraceSession::writeMerged(first, {&a, &b});
    TraceSession::writeMerged(second, {&a, &b});
    EXPECT_EQ(first.str(), second.str());

    // Null sessions (skipped runs) are tolerated and ignored.
    std::ostringstream with_null;
    TraceSession::writeMerged(with_null, {&a, nullptr, &b});
    EXPECT_EQ(with_null.str(), first.str());
}

TEST(TraceSession, FlowEventsCarryIdAndBindingPoint)
{
    TraceSession t;
    t.beginProcess("run");
    t.flow(CatFault, "iommu", "fault", 100, 42,
           TraceSession::FlowPhase::Begin);
    t.flow(CatFault, "driver", "fault", 200, 42,
           TraceSession::FlowPhase::Step);
    t.flow(CatFault, "gpu1", "fault", 300, 42,
           TraceSession::FlowPhase::End);

    const auto doc = obs::json::Value::parse(traceJson(t));
    ASSERT_TRUE(doc.has_value()) << traceJson(t);
    const auto *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);

    int begins = 0, steps = 0, ends = 0;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const auto &e = events->at(i);
        const std::string ph = e.find("ph")->asString();
        if (ph != "s" && ph != "t" && ph != "f")
            continue;
        // Flow arrows join on the id — the FaultId.
        ASSERT_NE(e.find("id"), nullptr);
        EXPECT_DOUBLE_EQ(e.find("id")->asNumber(), 42.0);
        EXPECT_EQ(e.find("name")->asString(), "fault");
        if (ph == "s") {
            ++begins;
            EXPECT_EQ(e.find("bp"), nullptr);
        } else {
            // Steps and ends bind to the enclosing slice.
            (ph == "t" ? ++steps : ++ends);
            ASSERT_NE(e.find("bp"), nullptr);
            EXPECT_EQ(e.find("bp")->asString(), "e");
        }
    }
    EXPECT_EQ(begins, 1);
    EXPECT_EQ(steps, 1);
    EXPECT_EQ(ends, 1);
}

TEST(TraceArgs, FormatsAllValueKinds)
{
    const std::string body = TraceArgs()
                                 .add("u", std::uint64_t(18446744073709551615ull))
                                 .add("d", 0.5)
                                 .add("s", "text")
                                 .json();
    EXPECT_NE(body.find("\"u\":18446744073709551615"), std::string::npos);
    EXPECT_NE(body.find("\"d\":0.5"), std::string::npos);
    EXPECT_NE(body.find("\"s\":\"text\""), std::string::npos);
}

TEST(Metrics, AttachDetachMirrorsTraceSession)
{
    // The latency slot nests the way a TraceSession attach does.
    EXPECT_EQ(obs::Telemetry::current().latency, nullptr);
    {
        obs::LatencyHistograms m;
        const obs::Telemetry::Scope attached({.latency = &m});
        EXPECT_EQ(obs::Telemetry::current().latency, &m);
        obs::faultServiced(100);
        EXPECT_EQ(obs::Telemetry::current().latency->faultLatency.count(),
                  1u);
    }
    EXPECT_EQ(obs::Telemetry::current().latency, nullptr);
}
