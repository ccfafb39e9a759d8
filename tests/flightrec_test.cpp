// Tests for the crash-time flight recorder (obs/flightrec.hh): ring
// semantics, the dump format, and the crash path itself — an injected
// rename-audit fault must panic AND leave a dump file carrying the
// run's identifying context plus the recorded event tail.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "obs/flightrec.hh"
#include "obs/telemetry.hh"
#include "rename/audit.hh"
#include "rename/reuse.hh"
#include "workloads/workloads.hh"

namespace {

namespace fs = std::filesystem;
using namespace rrs;
using obs::FlightEvent;
using obs::FlightEventKind;
using obs::FlightRecorder;

FlightEvent
ev(std::uint64_t cycle, FlightEventKind kind, std::uint16_t reg = 0)
{
    FlightEvent e;
    e.cycle = cycle;
    e.seq = cycle * 10;
    e.kind = kind;
    e.reg = reg;
    e.freeInt = 7;
    e.freeFp = 9;
    return e;
}

TEST(FlightRecorder, KeepsLastDepthEventsOldestFirst)
{
    FlightRecorder fr(4);
    EXPECT_EQ(fr.depth(), 4u);
    for (std::uint64_t c = 1; c <= 6; ++c)
        fr.record(ev(c, FlightEventKind::Alloc));
    const auto got = fr.events();
    ASSERT_EQ(got.size(), 4u);
    // Cycles 1 and 2 fell off the ring; 3..6 remain in order.
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].cycle, i + 3);
        EXPECT_EQ(got[i].seq, (i + 3) * 10);
    }
}

TEST(FlightRecorder, PartialFillReturnsOnlyRecorded)
{
    FlightRecorder fr(8);
    fr.record(ev(1, FlightEventKind::Alloc));
    fr.record(ev(2, FlightEventKind::Commit));
    const auto got = fr.events();
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].kind, FlightEventKind::Alloc);
    EXPECT_EQ(got[1].kind, FlightEventKind::Commit);
}

TEST(FlightRecorder, ZeroDepthClampsToOne)
{
    FlightRecorder fr(0);
    EXPECT_EQ(fr.depth(), 1u);
    fr.record(ev(1, FlightEventKind::Flush));
    fr.record(ev(2, FlightEventKind::Squash));
    const auto got = fr.events();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].kind, FlightEventKind::Squash);
}

TEST(FlightRecorder, KindNames)
{
    EXPECT_STREQ(obs::flightEventKindName(FlightEventKind::Alloc),
                 "alloc");
    EXPECT_STREQ(obs::flightEventKindName(FlightEventKind::Commit),
                 "commit");
    EXPECT_STREQ(obs::flightEventKindName(FlightEventKind::Squash),
                 "squash");
    EXPECT_STREQ(obs::flightEventKindName(FlightEventKind::Flush),
                 "flush");
}

TEST(FlightRecorder, DumpCarriesContextAndEvents)
{
    FlightRecorder fr(4);
    fr.setContext("workload", "int_crc");
    fr.setContext("scheme", "reuse");
    fr.setContext("sweep_seed", "12345");
    fr.record(ev(42, FlightEventKind::Alloc, 17));
    std::ostringstream os;
    fr.dump(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("workload: int_crc"), std::string::npos) << text;
    EXPECT_NE(text.find("scheme: reuse"), std::string::npos);
    EXPECT_NE(text.find("sweep_seed: 12345"), std::string::npos);
    EXPECT_NE(text.find("cycle 42"), std::string::npos);
    EXPECT_NE(text.find("alloc"), std::string::npos);
    EXPECT_NE(text.find("p17"), std::string::npos);
    EXPECT_NE(text.find("freeInt 7 freeFp 9"), std::string::npos);
}

TEST(FlightRecorder, DumpToFileHonoursDirOverride)
{
    const std::string dir = testing::TempDir() + "flightrec_unit";
    fs::create_directories(dir);
    obs::setTelemetryDir(dir);
    FlightRecorder fr(2);
    fr.setContext("workload", "unit");
    fr.record(ev(1, FlightEventKind::Commit));
    const std::string path = fr.dumpToFile();
    obs::setTelemetryDir("", true);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.rfind(dir, 0), 0u) << path;
    std::ifstream is(path);
    ASSERT_TRUE(is.is_open());
    std::ostringstream buf;
    buf << is.rdbuf();
    EXPECT_NE(buf.str().find("workload: unit"), std::string::npos);
}

// A running simulation with auditing on records real rename traffic
// through the core's hooks (harness integration, no crash involved).
TEST(FlightRecorder, HarnessRunRecordsRenameTraffic)
{
    const auto &w = workloads::workload("int_crc");
    harness::RunConfig cfg = harness::reuseConfig(64);
    cfg.maxInsts = 5000;
    cfg.obs.auditInterval = 1;
    // runOn owns the recorder, which runs whenever auditing does; this
    // test only proves the run completes with the hooks live and stays
    // bit-identical to a hook-free run.
    auto withRec = harness::runOn(w, cfg);
    harness::RunConfig bare = cfg;
    bare.obs.auditDisabled = true;
    auto without = harness::runOn(w, bare);
    EXPECT_EQ(withRec.sim.cycles, without.sim.cycles);
    EXPECT_EQ(withRec.sim.committedInsts, without.sim.committedInsts);
}

#if GTEST_HAS_DEATH_TEST
// Extracted from the death-test macro: commas inside brace
// initialisers would otherwise split the macro's arguments.
void
crashWithArmedRecorder()
{
    using rename::ReuseRenamer;
    rename::ReuseRenamerParams p;
    p.intBanks = {32, 0, 0, 16};
    p.fpBanks = {32, 0, 0, 16};
    ReuseRenamer rn(p);

    FlightRecorder fr(8);
    fr.setContext("workload", "crash_unit");
    fr.setContext("scheme", "reuse");
    fr.setContext("sweep_seed", "777");
    fr.record(ev(100, FlightEventKind::Alloc, 3));
    fr.record(ev(101, FlightEventKind::Commit, 3));
    fr.arm();

    if (!rn.injectFault(ReuseRenamer::InjectedFault::DoubleFree))
        std::abort();   // wrong message: the test fails on the regex
    rename::RenameAuditor auditor;
    auditor.check(rn, "flightrec-test");
}

// The crash path end to end: an injected audit fault panics, and the
// armed recorder's crash hook must leave a dump file containing the
// run context and the event tail recorded before the violation.
TEST(FlightRecorderDeathTest, AuditFaultDumpsFlightRecording)
{
    const std::string dir = testing::TempDir() + "flightrec_crash";
    fs::remove_all(dir);
    fs::create_directories(dir);
    obs::setTelemetryDir(dir);

    EXPECT_DEATH(crashWithArmedRecorder(),
                 "rename audit failed at flightrec-test");
    obs::setTelemetryDir("", true);

    // The child wrote its dump before dying; find and inspect it.
    std::vector<std::string> dumps;
    for (const auto &e : fs::directory_iterator(dir)) {
        const std::string name = e.path().filename().string();
        if (name.rfind("flightrec_", 0) == 0)
            dumps.push_back(e.path().string());
    }
    ASSERT_EQ(dumps.size(), 1u)
        << "expected exactly one crash dump in " << dir;
    std::ifstream is(dumps[0]);
    ASSERT_TRUE(is.is_open());
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string text = buf.str();
    EXPECT_NE(text.find("workload: crash_unit"), std::string::npos)
        << text;
    EXPECT_NE(text.find("scheme: reuse"), std::string::npos);
    EXPECT_NE(text.find("sweep_seed: 777"), std::string::npos);
    EXPECT_NE(text.find("cycle 100"), std::string::npos);
    EXPECT_NE(text.find("cycle 101"), std::string::npos);
    EXPECT_NE(text.find("commit"), std::string::npos);
}
#endif

} // namespace
