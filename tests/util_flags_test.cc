#include "src/util/flags.h"

#include <gtest/gtest.h>

#include "src/gos/vm.h"
#include "src/util/check.h"

namespace hmdsm {
namespace {

Flags Make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsSyntax) {
  auto f = Make({"--app=asp", "--size=256"});
  EXPECT_EQ(f.Get("app"), "asp");
  EXPECT_EQ(f.GetInt("size", 0), 256);
}

TEST(Flags, SpaceSyntax) {
  auto f = Make({"--app", "sor", "--size", "128"});
  EXPECT_EQ(f.Get("app"), "sor");
  EXPECT_EQ(f.GetInt("size", 0), 128);
}

TEST(Flags, BareBoolean) {
  auto f = Make({"--verbose", "--app=tsp"});
  EXPECT_TRUE(f.GetBool("verbose"));
  EXPECT_FALSE(f.GetBool("quiet"));
  EXPECT_TRUE(f.GetBool("quiet", true));
}

TEST(Flags, BooleanSpellings) {
  EXPECT_FALSE(Make({"--x=0"}).GetBool("x", true));
  EXPECT_FALSE(Make({"--x=false"}).GetBool("x", true));
  EXPECT_FALSE(Make({"--x=no"}).GetBool("x", true));
  EXPECT_FALSE(Make({"--x=off"}).GetBool("x", true));
  EXPECT_TRUE(Make({"--x=1"}).GetBool("x", false));
  EXPECT_TRUE(Make({"--x=yes"}).GetBool("x", false));
}

TEST(Flags, Fallbacks) {
  auto f = Make({});
  EXPECT_EQ(f.Get("missing", "dflt"), "dflt");
  EXPECT_EQ(f.GetInt("missing", 42), 42);
  EXPECT_DOUBLE_EQ(f.GetDouble("missing", 2.5), 2.5);
}

TEST(Flags, Doubles) {
  auto f = Make({"--lambda=0.5", "--tinit", "4"});
  EXPECT_DOUBLE_EQ(f.GetDouble("lambda", 1.0), 0.5);
  EXPECT_DOUBLE_EQ(f.GetDouble("tinit", 1.0), 4.0);
}

TEST(Flags, MalformedNumbersThrow) {
  auto f = Make({"--size=abc"});
  EXPECT_THROW(f.GetInt("size", 0), CheckError);
  auto g = Make({"--lambda=1.2.3"});
  EXPECT_THROW(g.GetDouble("lambda", 0), CheckError);
}

TEST(Flags, Positional) {
  auto f = Make({"input.txt", "--size=3", "more"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.txt");
  EXPECT_EQ(f.positional()[1], "more");
}

TEST(Flags, UnusedDetection) {
  auto f = Make({"--used=1", "--typo=2"});
  (void)f.GetInt("used", 0);
  const auto unused = f.UnusedFlags();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Flags, NegativeValueViaEquals) {
  // --key value syntax would treat "-5" as a value too (not a -- flag).
  auto f = Make({"--offset=-5", "--delta", "-7"});
  EXPECT_EQ(f.GetInt("offset", 0), -5);
  EXPECT_EQ(f.GetInt("delta", 0), -7);
}

// ---------------------------------------------------------------------------
// Backend/flag combination matrix (the CLI's gate). Since the apps were
// ported onto the backend-neutral Vm, every backend runs every app; only
// --record off the sim (sim-deterministic capture) and --inject-latency
// off threads (the sim already models it, sockets pay it for real) are
// rejected.
// ---------------------------------------------------------------------------

TEST(BackendRequest, EveryBackendAcceptsAPlainRun) {
  for (const auto backend : {gos::Backend::kSim, gos::Backend::kThreads,
                             gos::Backend::kSockets}) {
    EXPECT_EQ(gos::ValidateBackendRequest(backend, /*record=*/false,
                                          /*inject_latency=*/false),
              "")
        << gos::BackendName(backend);
  }
}

TEST(BackendRequest, RecordIsSimOnly) {
  EXPECT_EQ(gos::ValidateBackendRequest(gos::Backend::kSim,
                                        /*record=*/true, false),
            "");
  EXPECT_NE(gos::ValidateBackendRequest(gos::Backend::kThreads,
                                        /*record=*/true, false),
            "");
  EXPECT_NE(gos::ValidateBackendRequest(gos::Backend::kSockets,
                                        /*record=*/true, false),
            "");
}

TEST(BackendRequest, LatencyInjectionIsThreadsOnly) {
  EXPECT_EQ(gos::ValidateBackendRequest(gos::Backend::kThreads, false,
                                        /*inject_latency=*/true),
            "");
  EXPECT_NE(gos::ValidateBackendRequest(gos::Backend::kSim, false,
                                        /*inject_latency=*/true),
            "");
  // The sockets backend pays real network latency; injecting the modeled
  // one on top would double-count it.
  EXPECT_NE(gos::ValidateBackendRequest(gos::Backend::kSockets, false,
                                        /*inject_latency=*/true),
            "");
}

TEST(BackendRequest, CombinationsParsedFromFlagsMatchTheCliWiring) {
  // The exact flag spellings the CLI consumes, end to end through Flags.
  auto request = [](std::initializer_list<const char*> args) {
    const Flags f = Make(args);
    const std::string name = f.Get("backend", "sim");
    const gos::Backend backend = name == "threads" ? gos::Backend::kThreads
                                 : name == "sockets"
                                     ? gos::Backend::kSockets
                                     : gos::Backend::kSim;
    return gos::ValidateBackendRequest(backend, f.Has("record"),
                                       f.GetBool("inject-latency", false));
  };
  EXPECT_EQ(request({"--app=asp", "--backend=threads"}), "");
  EXPECT_EQ(request({"--app=tsp", "--backend=threads", "--inject-latency"}),
            "");
  EXPECT_EQ(request({"--app=scenario", "--record=/tmp/t"}), "");
  EXPECT_NE(request({"--app=scenario", "--backend=threads",
                     "--record=/tmp/t"}),
            "");
  EXPECT_NE(request({"--app=sor", "--inject-latency"}), "");
  // The sockets spellings the CLI accepts and rejects.
  EXPECT_EQ(request({"--app=asp", "--backend=sockets"}), "");
  EXPECT_EQ(request({"--app=scenario", "--backend=sockets"}), "");
  EXPECT_EQ(request({"--app=synthetic", "--backend=sockets"}), "");
  EXPECT_NE(request({"--app=asp", "--backend=sockets", "--inject-latency"}),
            "");
  EXPECT_NE(request({"--app=scenario", "--backend=sockets",
                     "--record=/tmp/t"}),
            "");
}

}  // namespace
}  // namespace hmdsm
