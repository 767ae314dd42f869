// Wire-protocol tests: escaping, request parsing, job-record round-trips,
// the verb dispatcher's response grammar, and snapshot/restore equivalence
// (event-sourced replay must rebuild the exact session).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "service/protocol.h"
#include "service/server.h"
#include "service/service_session.h"
#include "util/time.h"

namespace hs {
namespace {

TEST(ProtocolTest, EscapeRoundTrips) {
  const std::string nasty = "CUP&SPAA/FCFS/W5 preset=midsize %20\nend";
  const std::string escaped = EscapeField(nasty);
  EXPECT_EQ(escaped.find(' '), std::string::npos);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  EXPECT_EQ(UnescapeField(escaped), nasty);
  EXPECT_EQ(EscapeField(""), "");
  EXPECT_EQ(UnescapeField("a%20b"), "a b");
  EXPECT_EQ(UnescapeField("100%25"), "100%");
}

TEST(ProtocolTest, UnescapeRejectsMalformedEscapes) {
  EXPECT_THROW(UnescapeField("%2"), std::invalid_argument);   // truncated
  EXPECT_THROW(UnescapeField("abc%"), std::invalid_argument);  // truncated
  EXPECT_THROW(UnescapeField("%zz"), std::invalid_argument);  // not hex
}

TEST(ProtocolTest, FmtExactDoubleRoundTripsBitExactly) {
  for (const double value : {0.0, 1.0 / 3.0, 0.8431372549019608, 1e-17,
                             123456789.123456789, -2.5e300}) {
    const std::string text = FmtExactDouble(value);
    const double parsed = std::strtod(text.c_str(), nullptr);
    EXPECT_EQ(std::memcmp(&parsed, &value, sizeof value), 0) << text;
  }
}

TEST(ProtocolTest, RequestParsesVerbAndArgs) {
  const Request req = Request::Parse("submit class=od size=128 label=a%20b");
  EXPECT_EQ(req.verb(), "submit");
  EXPECT_TRUE(req.Has("class"));
  EXPECT_FALSE(req.Has("missing"));
  EXPECT_EQ(req.GetString("class", ""), "od");
  EXPECT_EQ(req.GetInt("size", 0), 128);
  EXPECT_EQ(req.GetString("label", ""), "a b");  // unescaped on parse
  EXPECT_NO_THROW(req.RejectUnknown());
}

TEST(ProtocolTest, RequestRejectsMalformedLines) {
  EXPECT_THROW(Request::Parse(""), std::invalid_argument);
  EXPECT_THROW(Request::Parse("verb naked-token"), std::invalid_argument);
  EXPECT_THROW(Request::Parse("verb =value"), std::invalid_argument);
  const Request req = Request::Parse("verb size=big");
  EXPECT_THROW(req.GetInt("size", 0), std::invalid_argument);
}

TEST(ProtocolTest, RequestIntegersAreStrict) {
  // A sign, a leading space (after unescaping) or a doubled relative '+'
  // must not slip through as a number.
  EXPECT_THROW(Request::Parse("verb size=+7").GetInt("size", 0), std::invalid_argument);
  EXPECT_THROW(Request::Parse("verb size=%207").GetInt("size", 0), std::invalid_argument);
  EXPECT_THROW(Request::Parse("advance to=++5").GetTime("to", 1000, 0),
               std::invalid_argument);
}

TEST(ProtocolTest, RejectUnknownCatchesTypos) {
  const Request req = Request::Parse("advance too=100");
  req.GetTime("to", 0, 0);
  EXPECT_THROW(req.RejectUnknown(), std::invalid_argument);
}

TEST(ProtocolTest, GetTimeAcceptsRelativeOffsets) {
  const Request req = Request::Parse("advance to=+600 at=3600");
  EXPECT_EQ(req.GetTime("to", 1000, 0), 1600);   // '+D' is now-relative
  EXPECT_EQ(req.GetTime("at", 1000, 0), 3600);   // absolute stays absolute
  EXPECT_EQ(req.GetTime("none", 1000, 42), 42);  // default when absent
}

TEST(ProtocolTest, FormatRequestEscapesValues) {
  EXPECT_EQ(FormatRequest("snapshot", {{"path", "/tmp/a b.snap"}}),
            "snapshot path=/tmp/a%20b.snap");
}

TEST(ProtocolTest, JobFieldsRoundTrip) {
  JobRecord job;
  job.id = 77;
  job.klass = JobClass::kOnDemand;
  job.size = 256;
  job.min_size = 256;
  job.submit_time = 5000;
  job.compute_time = 3600;
  job.estimate = 4000;
  job.setup_time = 30;
  job.notice = NoticeClass::kEarly;
  job.notice_time = 4000;
  job.predicted_arrival = 5500;
  job.project = 3;

  const std::string fields = FormatJobFields(job, /*with_id=*/true);
  const Request req = Request::Parse("op " + fields);
  EXPECT_EQ(ParseJobId(req), 77);
  const JobRecord parsed = ParseJobFields(req, /*now=*/0);
  EXPECT_NO_THROW(req.RejectUnknown());

  EXPECT_EQ(parsed.klass, job.klass);
  EXPECT_EQ(parsed.size, job.size);
  EXPECT_EQ(parsed.min_size, job.min_size);
  EXPECT_EQ(parsed.submit_time, job.submit_time);
  EXPECT_EQ(parsed.compute_time, job.compute_time);
  EXPECT_EQ(parsed.estimate, job.estimate);
  EXPECT_EQ(parsed.setup_time, job.setup_time);
  EXPECT_EQ(parsed.notice, NoticeClass::kEarly);  // derived: submit < predicted
  EXPECT_EQ(parsed.notice_time, job.notice_time);
  EXPECT_EQ(parsed.predicted_arrival, job.predicted_arrival);
  EXPECT_EQ(parsed.project, job.project);
}

TEST(ProtocolTest, ParseJobFieldsDefaultsAndValidation) {
  // Defaults: submit = now + 1, min = size, estimate = setup + compute.
  const JobRecord job = ParseJobFields(
      Request::Parse("submit class=rigid size=64 compute=3600 setup=100"), 900);
  EXPECT_EQ(job.submit_time, 901);
  EXPECT_EQ(job.min_size, 64);
  EXPECT_EQ(job.estimate, 3700);
  EXPECT_EQ(job.notice, NoticeClass::kNone);
  EXPECT_EQ(job.project, -1);

  // notice= and predicted= must pair, and only od jobs carry them.
  EXPECT_THROW(ParseJobFields(Request::Parse("submit class=od size=1 notice=5"), 0),
               std::invalid_argument);
  EXPECT_THROW(
      ParseJobFields(
          Request::Parse("submit class=rigid size=1 notice=5 predicted=9"), 0),
      std::invalid_argument);
  EXPECT_THROW(ParseJobFields(Request::Parse("submit class=fluid size=1"), 0),
               std::invalid_argument);
}

// --- dispatcher grammar ------------------------------------------------------

ServiceSession TinyService() {
  SimSpec spec = SimSpec::Parse("baseline/FCFS/W5/preset=midsize");
  spec.seed = 9;
  return ServiceSession(spec);
}

TEST(DispatcherTest, PingAdvanceSubmitQueryFlow) {
  ServiceSession session = TinyService();
  EXPECT_EQ(HandleRequestLine(session, "ping").lines,
            std::vector<std::string>{"ok now=0"});

  const WireResponse advance = HandleRequestLine(session, "advance by=3600");
  ASSERT_EQ(advance.lines.size(), 1u);
  EXPECT_EQ(advance.lines[0].rfind("ok now=3600 events=", 0), 0u);

  const WireResponse submit = HandleRequestLine(
      session, "submit class=rigid size=32 compute=600 submit=+60");
  ASSERT_EQ(submit.lines.size(), 1u);
  const std::string expected_id =
      std::to_string(session.base_trace().jobs.size());
  EXPECT_EQ(submit.lines[0],
            "ok job=" + expected_id + " submit=3660");

  const WireResponse query =
      HandleRequestLine(session, "query-job job=" + expected_id);
  ASSERT_EQ(query.lines.size(), 1u);
  EXPECT_EQ(query.lines[0].rfind("ok job=" + expected_id + " state=pending", 0),
            0u)
      << query.lines[0];

  const WireResponse cancel =
      HandleRequestLine(session, "cancel job=" + expected_id);
  EXPECT_EQ(cancel.lines, std::vector<std::string>{"ok job=" + expected_id});
  const WireResponse requery =
      HandleRequestLine(session, "query-job job=" + expected_id);
  EXPECT_NE(requery.lines[0].find("state=canceled"), std::string::npos);
}

TEST(DispatcherTest, ErrorsComeBackAsErrLinesNeverThrows) {
  ServiceSession session = TinyService();
  for (const char* bad : {
           "frobnicate",                    // unknown verb
           "advance",                       // neither to= nor by=
           "advance to=5 by=5",             // both
           "advance to=-100",               // into the past (session threw)
           "query-job job=999999",          // unknown job
           "cancel job=999999",             // uncancelable
           "submit class=rigid size=32 compute=60 submit=0",  // not future
           "submit size=32 compute=60 color=red",             // unknown key
           "whatif mechanisms= size=1 compute=1",             // empty csv
       }) {
    const WireResponse resp = HandleRequestLine(session, bad);
    ASSERT_EQ(resp.lines.size(), 1u) << bad;
    EXPECT_EQ(resp.lines[0].rfind("err msg=", 0), 0u) << bad << " -> "
                                                      << resp.lines[0];
    EXPECT_FALSE(resp.shutdown);
  }
}

TEST(DispatcherTest, WhatIfFramesAnswersWithSentinel) {
  ServiceSession session = TinyService();
  HandleRequestLine(session, "advance to=7200");
  const WireResponse resp = HandleRequestLine(
      session,
      "whatif mechanisms=baseline,CUP&SPAA size=64 compute=600 submit=+60");
  ASSERT_EQ(resp.lines.size(), 4u);
  EXPECT_EQ(resp.lines[0], "ok n=2");
  EXPECT_EQ(resp.lines[1].rfind("mech=baseline started=", 0), 0u);
  EXPECT_EQ(resp.lines[2].rfind("mech=CUP&SPAA started=", 0), 0u);
  EXPECT_EQ(resp.lines[3], "end");
}

TEST(DispatcherTest, ShutdownSetsTheFlag) {
  ServiceSession session = TinyService();
  const WireResponse resp = HandleRequestLine(session, "shutdown");
  EXPECT_EQ(resp.lines, std::vector<std::string>{"ok bye"});
  EXPECT_TRUE(resp.shutdown);
}

// --- snapshot / restore ------------------------------------------------------

TEST(SnapshotTest, RestoreRebuildsTheExactSession) {
  ServiceSession session = TinyService();
  session.AdvanceTo(kDay);

  JobRecord od;
  od.klass = JobClass::kOnDemand;
  od.size = od.min_size = 128;
  od.notice = NoticeClass::kAccurate;
  od.notice_time = session.now() + 5 * kMinute;
  od.submit_time = session.now() + kHour;
  od.predicted_arrival = od.submit_time;
  od.compute_time = kHour;
  od.estimate = kHour;
  const JobId first = session.Submit(od);

  JobRecord doomed;
  doomed.klass = JobClass::kRigid;
  doomed.size = doomed.min_size = 32;
  doomed.submit_time = session.now() + 2 * kHour;
  doomed.compute_time = kHour;
  doomed.estimate = kHour;
  const JobId second = session.Submit(doomed);
  EXPECT_TRUE(session.Cancel(second));
  session.AdvanceTo(2 * kDay);

  const std::string snapshot = session.SnapshotText();
  EXPECT_EQ(snapshot.rfind(kWireGreeting, 0), 0u);

  const std::unique_ptr<ServiceSession> restored =
      ServiceSession::RestoreText(snapshot);
  EXPECT_EQ(restored->now(), session.now());
  EXPECT_EQ(restored->ops_logged(), session.ops_logged());
  EXPECT_EQ(restored->events_processed(), session.events_processed());
  // Replay is exact: re-snapshotting the restored session is byte-identical.
  EXPECT_EQ(restored->SnapshotText(), snapshot);
  // And the restored session answers queries like the live one.
  EXPECT_EQ(HandleRequestLine(*restored, "query-metrics").lines,
            HandleRequestLine(session, "query-metrics").lines);
  EXPECT_EQ(HandleRequestLine(*restored, "query-job job=" + std::to_string(first)).lines,
            HandleRequestLine(session, "query-job job=" + std::to_string(first)).lines);
}

TEST(SnapshotTest, RestoreRejectsMalformedText) {
  EXPECT_THROW(ServiceSession::RestoreText(""), std::invalid_argument);
  EXPECT_THROW(ServiceSession::RestoreText("# hs-shard v1\n"),
               std::invalid_argument);
  const std::string good = TinyService().SnapshotText();
  // Drop the trailing 'end' line: truncation must be loud.
  const std::string truncated = good.substr(0, good.rfind("end"));
  EXPECT_THROW(ServiceSession::RestoreText(truncated), std::invalid_argument);
  // Corrupt the op count.
  std::string miscounted = good;
  miscounted.replace(miscounted.rfind("end 0"), 5, "end 3");
  EXPECT_THROW(ServiceSession::RestoreText(miscounted), std::invalid_argument);
}

TEST(SnapshotTest, RestoreChecksHeaderIntegers) {
  const std::string good = TinyService().SnapshotText();
  // `good` with the line opening with `key ` replaced by `key value`.
  const auto with = [&good](const std::string& key, const std::string& value) {
    const std::size_t at = good.find("\n" + key + " ") + 1;
    const std::size_t end = good.find('\n', at);
    return good.substr(0, at) + key + " " + value + good.substr(end);
  };
  const auto expect_rejected = [](const std::string& text, const std::string& line) {
    try {
      ServiceSession::RestoreText(text);
      ADD_FAILURE() << "'" << line << "' restored";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos) << e.what();
    }
  };
  // hs_server --headroom takes 1..kMaxHeadroom; a snapshot may not ask for
  // more (a trillion slots used to die in the up-front reserve).
  for (const std::string value : {"-1", "0", "1000000000000", "abc", "+5", " 7", "7x"}) {
    expect_rejected(with("headroom", value), "headroom " + value);
  }
  for (const std::string value : {"-1", "abc", "+0", "1e3"}) {
    expect_rejected(with("now", value), "now " + value);
  }
  for (const std::string value : {"abc", "-0x", " 0"}) {
    expect_rejected(with("end", value), "end " + value);
  }
  // The service benchmark's 20000 slots stay admissible.
  EXPECT_NO_THROW(ServiceSession::RestoreText(with("headroom", "20000")));
  EXPECT_GE(ServiceSession::kMaxHeadroom, 20000u);
}

}  // namespace
}  // namespace hs
