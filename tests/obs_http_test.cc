// The health-plane exporter under hostile input: the pure request-line
// parser must reject malformed and adversarial heads without allocating,
// and the live server must answer bounded errors (400/404/405/408/414)
// and keep serving afterwards. Renderers are smoke-checked for format
// invariants (every # TYPE'd family appears, /healthz is valid-shaped
// JSON) rather than golden text.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <string>

#include "src/obs/http.h"
#include "src/obs/metrics.h"

namespace hmdsm::obs {
namespace {

// ---------------------------------------------------------------------------
// ParseRequestHead: pure, no sockets
// ---------------------------------------------------------------------------

TEST(ObsParse, AcceptsAWellFormedGet) {
  HttpRequest req;
  EXPECT_EQ(ParseRequestHead("GET /metrics HTTP/1.0\r\n\r\n", &req),
            ParseStatus::kOk);
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/metrics");
}

TEST(ObsParse, ToleratesBareLfLineEnding) {
  HttpRequest req;
  EXPECT_EQ(ParseRequestHead("GET /healthz HTTP/1.1\n", &req),
            ParseStatus::kOk);
  EXPECT_EQ(req.path, "/healthz");
}

TEST(ObsParse, IncompleteLineNeedsMore) {
  EXPECT_EQ(ParseRequestHead("", nullptr), ParseStatus::kNeedMore);
  EXPECT_EQ(ParseRequestHead("GET /metr", nullptr), ParseStatus::kNeedMore);
  // A bare CR is not a line terminator.
  EXPECT_EQ(ParseRequestHead("GET /metrics HTTP/1.0\r", nullptr),
            ParseStatus::kNeedMore);
}

TEST(ObsParse, RejectsMalformedRequestLines) {
  const char* bad[] = {
      "GET/metrics HTTP/1.0\r\n",        // missing space
      "GET  /metrics HTTP/1.0\r\n",      // doubled space
      "GET /metrics HTTP/1.0 extra\n",   // third space
      "get /metrics HTTP/1.0\r\n",       // lowercase method
      "G3T /metrics HTTP/1.0\r\n",       // non-alpha method
      "GET metrics HTTP/1.0\r\n",        // path without leading /
      "GET /metrics FTP/1.0\r\n",        // not an HTTP version
      "GET / metrics HTTP/1.0\r\n",      // space inside path
      "\r\n",                            // empty line
      "ABSURDLYLONGMETHODNAME / HTTP/1.0\r\n",  // method over 16 bytes
  };
  for (const char* line : bad)
    EXPECT_EQ(ParseRequestHead(line, nullptr), ParseStatus::kBad) << line;
}

TEST(ObsParse, RejectsPathTraversal) {
  EXPECT_EQ(ParseRequestHead("GET /../etc/passwd HTTP/1.0\r\n", nullptr),
            ParseStatus::kBad);
  EXPECT_EQ(ParseRequestHead("GET /metrics/../healthz HTTP/1.0\r\n", nullptr),
            ParseStatus::kBad);
  EXPECT_EQ(ParseRequestHead("GET /.. HTTP/1.0\r\n", nullptr),
            ParseStatus::kBad);
  // Dots that are not a ".." segment are ordinary path bytes.
  EXPECT_EQ(ParseRequestHead("GET /v1..2/x HTTP/1.0\r\n", nullptr),
            ParseStatus::kOk);
  EXPECT_EQ(ParseRequestHead("GET /a.b.c HTTP/1.0\r\n", nullptr),
            ParseStatus::kOk);
}

TEST(ObsParse, RejectsControlAndQuoteBytesInPath) {
  EXPECT_EQ(ParseRequestHead("GET /me\ttrics HTTP/1.0\r\n", nullptr),
            ParseStatus::kBad);
  EXPECT_EQ(ParseRequestHead("GET /a\"b HTTP/1.0\r\n", nullptr),
            ParseStatus::kBad);
  EXPECT_EQ(ParseRequestHead(std::string("GET /a\x01z HTTP/1.0\r\n"),
                             nullptr),
            ParseStatus::kBad);
}

TEST(ObsParse, OversizedGarbageStaysNeedMoreUntilTheCallerCaps) {
  // No newline ever arrives: the parser keeps asking for more and the
  // *caller's* fixed buffer provides the bound (served as 414 live).
  const std::string flood(kMaxRequestBytes, 'A');
  EXPECT_EQ(ParseRequestHead(flood, nullptr), ParseStatus::kNeedMore);
}

// ---------------------------------------------------------------------------
// Live server: bounded rejections, then keeps serving
// ---------------------------------------------------------------------------

class LiveServer : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string err;
    ASSERT_TRUE(server_.Start(
        /*port=*/0,
        [](const HttpRequest& req) {
          HttpServer::Response r;
          if (req.path == "/ping") {
            r.body = "pong\n";
            return r;
          }
          r.status = 404;
          r.body = "not found\n";
          return r;
        },
        &err))
        << err;
  }

  /// One connection: send `request` raw, read until EOF, return the
  /// response text ("" = connect failure).
  std::string Exchange(const std::string& request) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      return "";
    }
    (void)!::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
    std::string out;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) out.append(buf, n);
    ::close(fd);
    return out;
  }

  HttpServer server_;
};

TEST_F(LiveServer, ServesTheHandler) {
  const std::string resp = Exchange("GET /ping HTTP/1.0\r\n\r\n");
  EXPECT_NE(resp.find("200 OK"), std::string::npos);
  EXPECT_NE(resp.find("pong"), std::string::npos);
}

TEST_F(LiveServer, UnknownPathIs404) {
  EXPECT_NE(Exchange("GET /nope HTTP/1.0\r\n\r\n").find("404"),
            std::string::npos);
}

TEST_F(LiveServer, BadMethodIs405) {
  EXPECT_NE(Exchange("POST /ping HTTP/1.0\r\n\r\n").find("405"),
            std::string::npos);
}

TEST_F(LiveServer, MalformedLineIs400) {
  EXPECT_NE(Exchange("GET  /ping HTTP/1.0\r\n\r\n").find("400"),
            std::string::npos);
  EXPECT_NE(Exchange("GET /../x HTTP/1.0\r\n\r\n").find("400"),
            std::string::npos);
}

TEST_F(LiveServer, OversizedRequestLineIs414) {
  // More than the head buffer with no newline: rejected at the bound.
  const std::string flood(kMaxRequestBytes + 512, 'A');
  EXPECT_NE(Exchange(flood).find("414"), std::string::npos);
}

TEST_F(LiveServer, SurvivesHostileRequestsAndKeepsServing) {
  Exchange(std::string("\x00\x01\x02\xff GET", 8));
  Exchange(std::string(kMaxRequestBytes * 2, 'B'));
  Exchange("DELETE /ping HTTP/1.0\r\n\r\n");
  const std::string resp = Exchange("GET /ping HTTP/1.0\r\n\r\n");
  EXPECT_NE(resp.find("pong"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Renderers
// ---------------------------------------------------------------------------

MeshView SampleView() {
  MeshView v;
  v.node_count = 4;
  v.ranks_per_proc = 2;
  v.process_count = 2;
  v.lead = 0;
  v.self_primary = 0;
  v.uptime_s = 1.5;
  v.health.heartbeat_interval_ns = 250 * 1000000ull;
  netio::PeerHealth peer;
  peer.peer = 2;
  peer.state = netio::PeerState::kSuspect;
  peer.last_heard_ns = 1000;
  peer.missed = 3;
  v.health.peers.push_back(peer);
  netio::LinkStats link;
  link.primary = 2;
  link.connected = true;
  link.up = true;
  link.hb_sent = 10;
  link.hb_acked = 8;
  link.rtt.Record(1000);
  link.rtt.Record(2000);
  v.health.links.push_back(link);
  v.health.all_healthy = false;
  v.poll.valid = true;
  v.poll.seq = 7;
  v.poll.t_s = 1.4;
  v.poll.answered = 1;
  v.poll.expected = 1;
  v.poll.stale.push_back(2);
  v.poll.totals.SetNodeCount(4);
  v.poll.totals.RecordMessage(stats::MsgCat::kObj, 64);
  v.poll.totals.Bump(stats::Ev::kMigrations, 3);
  v.poll.totals.Bump(stats::Ev::kGrantCopies, 5);
  v.poll.totals.Bump(stats::Ev::kLockLocalAcquires, 11);
  v.poll.totals.Bump(stats::Ev::kLockRecalls, 2);
  return v;
}

TEST(ObsMetrics, RankStatesExpandProcessVerdictsToRanks) {
  const auto states = RankStates(SampleView());
  ASSERT_EQ(states.size(), 4u);
  EXPECT_EQ(states[0], netio::PeerState::kHealthy);  // self
  EXPECT_EQ(states[1], netio::PeerState::kHealthy);
  EXPECT_EQ(states[2], netio::PeerState::kSuspect);  // peer process
  EXPECT_EQ(states[3], netio::PeerState::kSuspect);
}

TEST(ObsMetrics, PrometheusExposesTheFamilies) {
  const std::string text = RenderPrometheus(SampleView());
  for (const char* needle :
       {"# TYPE hmdsm_up gauge", "hmdsm_cluster_nodes 4",
        "hmdsm_rank_healthy{rank=\"2\"} 0",
        "hmdsm_link_heartbeats_sent_total{peer=\"2\"} 10",
        "hmdsm_link_rtt_seconds{peer=\"2\",quantile=\"0.5\"}",
        "hmdsm_link_rtt_seconds_count{peer=\"2\"} 2",
        "hmdsm_rank_stale{rank=\"2\"} 1",
        "hmdsm_events_total{event=\"migrations\"} 3",
        "hmdsm_events_total{event=\"grant_copies\"} 5",
        "hmdsm_events_total{event=\"lock_local_acquires\"} 11",
        "hmdsm_events_total{event=\"lock_recalls\"} 2", "hmdsm_poll_seq 7"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  // Exposition format: last line still ends in a newline.
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

TEST(ObsMetrics, HealthzReportsWorstState) {
  const std::string json = RenderHealthz(SampleView());
  EXPECT_NE(json.find("\"status\":\"suspect\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ranks\""), std::string::npos);
  EXPECT_NE(json.find("\"missed_beats\":3"), std::string::npos);
  MeshView ok = SampleView();
  ok.health.peers[0].state = netio::PeerState::kHealthy;
  ok.health.all_healthy = true;
  EXPECT_NE(RenderHealthz(ok).find("\"status\":\"ok\""), std::string::npos);
  MeshView dead = SampleView();
  dead.health.peers[0].state = netio::PeerState::kDead;
  dead.health.any_dead = true;
  EXPECT_NE(RenderHealthz(dead).find("\"status\":\"dead\""),
            std::string::npos);
}

TEST(ObsMetrics, HandleObsRequestRoutes) {
  const auto gather = [] { return SampleView(); };
  HttpRequest req;
  req.method = "GET";
  req.path = "/metrics";
  EXPECT_EQ(HandleObsRequest(req, gather).status, 200);
  EXPECT_NE(HandleObsRequest(req, gather).content_type.find("version=0.0.4"),
            std::string::npos);
  req.path = "/healthz";
  EXPECT_EQ(HandleObsRequest(req, gather).status, 200);
  EXPECT_NE(HandleObsRequest(req, gather).content_type.find("json"),
            std::string::npos);
  req.path = "/elsewhere";
  EXPECT_EQ(HandleObsRequest(req, gather).status, 404);
}

}  // namespace
}  // namespace hmdsm::obs
