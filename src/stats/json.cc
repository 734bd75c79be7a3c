#include "src/stats/json.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/util/json.h"

namespace hmdsm::stats {
namespace {

void WriteDecisionJson(JsonWriter& jw, const Decision& d) {
  jw.BeginObject();
  jw.Key("at_ns").Int(d.at_ns);
  jw.Key("obj").Uint(d.obj);
  jw.Key("epoch").Uint(d.epoch);
  jw.Key("home").Uint(d.home);
  jw.Key("requester").Uint(d.requester);
  jw.Key("consecutive_writes").Uint(d.consecutive_writes);
  jw.Key("consecutive_writer").Uint(d.consecutive_writer);
  jw.Key("redirects").Uint(d.redirects);
  jw.Key("exclusive_home_writes").Uint(d.exclusive_home_writes);
  jw.Key("piggyback_switches").Uint(d.piggyback_switches);
  // The NoHM policy's live threshold is +infinity ("never migrate"), which
  // JSON cannot represent as a number.
  if (std::isfinite(d.threshold))
    jw.Key("threshold").Double(d.threshold);
  else
    jw.Key("threshold").String("inf");
  jw.Key("object_bytes").Uint(d.object_bytes);
  jw.Key("for_write").Bool(d.for_write);
  jw.Key("migrate").Bool(d.migrate);
  jw.Key("destination").Uint(d.destination);
  jw.EndObject();
}

void WriteLedgerJson(JsonWriter& jw, const DecisionLedger& ledger) {
  jw.BeginObject();
  jw.Key("decisions").BeginArray();
  for (const Decision& d : ledger.Sorted()) WriteDecisionJson(jw, d);
  jw.EndArray();
  jw.Key("dropped").Uint(ledger.dropped());
  jw.EndObject();
}

}  // namespace

bool WriteAuditFile(const std::string& path, const DecisionLedger& ledger) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
  }
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "audit: cannot write %s\n", path.c_str());
    return false;
  }
  {
    JsonWriter jw(os);
    WriteLedgerJson(jw, ledger);
  }
  os << '\n';
  return static_cast<bool>(os);
}

}  // namespace hmdsm::stats
