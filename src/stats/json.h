// JSON emission for the decision-ledger audit file (--audit-out).
#pragma once

#include <string>

#include "src/stats/decision.h"

namespace hmdsm::stats {

/// Writes a standalone audit file: the ledger as
/// `{"decisions":[...time-ordered...],"dropped":N}`, each decision with all
/// policy inputs plus the verdict. Creates parent directories as needed;
/// returns false (with a stderr note) on I/O error.
bool WriteAuditFile(const std::string& path, const DecisionLedger& ledger);

}  // namespace hmdsm::stats
