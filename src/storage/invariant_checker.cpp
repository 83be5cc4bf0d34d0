#include "storage/invariant_checker.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <tuple>

namespace asa_repro::storage {

namespace {

std::string guid_tag(const Guid& guid) {
  return guid.to_hex().substr(0, 10);
}

using AckRun = std::span<const std::uint32_t>;

/// The run of `index` (a node's ledger ordered by guid, request id,
/// position) holding `guid`'s acknowledgements.
AckRun ack_run(const AsaCluster::AckLedger& ledger,
               const std::vector<std::uint32_t>& index, std::uint64_t guid) {
  const auto guid_of = [&ledger](std::uint32_t pos) {
    return ledger[pos].guid;
  };
  const auto first = std::partition_point(
      index.begin(), index.end(),
      [&](std::uint32_t pos) { return guid_of(pos) < guid; });
  const auto last = std::partition_point(
      first, index.end(),
      [&](std::uint32_t pos) { return guid_of(pos) == guid; });
  return {first, last};
}

/// Call `visit(request_id, payload)` once per request acknowledged in
/// `run`, in request id order, with the payload of the request's last
/// acknowledgement (a resent update acknowledged again overrides).
template <typename Visit>
void for_each_ack(const AsaCluster::AckLedger& ledger, AckRun run,
                  Visit visit) {
  for (std::size_t i = 0; i < run.size(); ++i) {
    const AsaCluster::AckRecord& record = ledger[run[i]];
    if (i + 1 < run.size() &&
        ledger[run[i + 1]].request_id == record.request_id) {
      continue;
    }
    visit(record.request_id, record.payload);
  }
}

}  // namespace

void InvariantChecker::note_submitted(const Guid& guid,
                                      std::uint64_t payload) {
  submitted_[guid.to_uint64()].insert(payload);
  // Registering the GUID makes the cluster (and thus check()) aware of it
  // even if no commit ever succeeds.
  (void)cluster_.peer_set(guid);
}

std::vector<sim::NodeAddr> InvariantChecker::honest_members(
    const Guid& guid) const {
  std::vector<sim::NodeAddr> honest;
  for (sim::NodeAddr addr : cluster_.peer_set(guid)) {
    const auto index = static_cast<std::size_t>(addr);
    if (index >= cluster_.node_count()) continue;
    if (cluster_.departed(index)) continue;
    if (cluster_.crashed(index)) continue;
    if (cluster_.behaviour(index) != commit::Behaviour::kHonest) continue;
    honest.push_back(addr);
  }
  return honest;
}

std::vector<Violation> InvariantChecker::check(bool check_order) const {
  std::vector<LedgerIndex> ledgers;
  if (cluster_.config().durability) {
    ledgers.resize(cluster_.node_count());
    for (std::size_t node = 0; node < ledgers.size(); ++node) {
      const AsaCluster::AckLedger& ledger = cluster_.acked_commits(node);
      LedgerIndex& index = ledgers[node];
      index.resize(ledger.size());
      std::iota(index.begin(), index.end(), std::uint32_t{0});
      std::sort(index.begin(), index.end(),
                [&ledger](std::uint32_t a, std::uint32_t b) {
                  return std::tie(ledger[a].guid, ledger[a].request_id, a) <
                         std::tie(ledger[b].guid, ledger[b].request_id, b);
                });
    }
  }
  std::vector<Violation> violations;
  for (const Guid& guid : cluster_.known_guids()) {
    check_guid(guid, check_order, ledgers, violations);
  }
  return violations;
}

void InvariantChecker::check_guid(const Guid& guid, bool check_order,
                                  const std::vector<LedgerIndex>& ledgers,
                                  std::vector<Violation>& out) const {
  const std::uint64_t key = guid.to_uint64();
  const std::vector<sim::NodeAddr> honest = honest_members(guid);
  const auto* allowed = [&]() -> const std::set<std::uint64_t>* {
    const auto it = submitted_.find(key);
    return it == submitted_.end() ? nullptr : &it->second;
  }();

  // Per-replica checks + request_id -> payload agreement across replicas.
  std::map<std::uint64_t, std::uint64_t> request_payload;
  for (sim::NodeAddr addr : honest) {
    const auto& entries = cluster_.host(addr).peer().history(key);
    std::set<std::uint64_t> update_ids;
    for (const auto& e : entries) {
      if (!update_ids.insert(e.update_id).second) {
        out.push_back({"duplicate-commit",
                       "guid " + guid_tag(guid) + " node " +
                           std::to_string(addr) + " committed update " +
                           std::to_string(e.update_id) + " twice"});
      }
      const auto [it, inserted] =
          request_payload.emplace(e.request_id, e.payload);
      if (!inserted && it->second != e.payload) {
        out.push_back({"conflicting-payload",
                       "guid " + guid_tag(guid) + " request " +
                           std::to_string(e.request_id) +
                           " committed with payloads " +
                           std::to_string(it->second) + " and " +
                           std::to_string(e.payload) + " (node " +
                           std::to_string(addr) + ")"});
      }
      if (!submitted_.empty() &&
          (allowed == nullptr || !allowed->contains(e.payload))) {
        out.push_back({"validity",
                       "guid " + guid_tag(guid) + " node " +
                           std::to_string(addr) +
                           " committed never-submitted payload " +
                           std::to_string(e.payload)});
      }
    }
  }

  // Durable acks: everything a node acknowledged must still be in its
  // history — after a crash, that history is replayed journal plus
  // reconciliation delta, so this is the crash-consistency check. The
  // ledger lives in the cluster (not the node) precisely so it survives
  // the crashes it audits.
  if (cluster_.config().durability) {
    for (sim::NodeAddr addr : honest) {
      const auto node = static_cast<std::size_t>(addr);
      const AsaCluster::AckLedger& ledger = cluster_.acked_commits(node);
      const AckRun run = ack_run(ledger, ledgers[node], key);
      if (run.empty()) continue;
      std::map<std::uint64_t, std::uint64_t> by_request;
      for (const auto& e : cluster_.host(addr).peer().history(key)) {
        by_request.emplace(e.request_id, e.payload);
      }
      for_each_ack(
          ledger, run,
          [&](std::uint64_t request_id, std::uint64_t payload) {
            const auto hit = by_request.find(request_id);
            if (hit == by_request.end()) {
              out.push_back({"durable-ack",
                             "guid " + guid_tag(guid) + " node " +
                                 std::to_string(addr) +
                                 " acknowledged request " +
                                 std::to_string(request_id) +
                                 " but no longer has it (lost on recovery?)"});
            } else if (hit->second != payload) {
              out.push_back({"durable-ack",
                             "guid " + guid_tag(guid) + " node " +
                                 std::to_string(addr) +
                                 " acknowledged request " +
                                 std::to_string(request_id) +
                                 " with payload " + std::to_string(payload) +
                                 " but now has " +
                                 std::to_string(hit->second)});
            }
          });
    }
  }

  // Handoff acks: a gracefully-departed member's acknowledged commits must
  // survive in the current peer set — that is precisely what the graceful-
  // leave handoff transports. Abrupt departures are exempt (no chance to
  // hand off).
  if (cluster_.config().durability) {
    std::set<std::uint64_t> surviving_requests;
    for (sim::NodeAddr addr : honest) {
      for (const auto& e : cluster_.host(addr).peer().history(key)) {
        surviving_requests.insert(e.request_id);
      }
    }
    for (std::size_t index = 0; index < cluster_.node_count(); ++index) {
      if (!cluster_.departed(index) ||
          !cluster_.departed_gracefully(index)) {
        continue;
      }
      const AsaCluster::AckLedger& ledger = cluster_.acked_commits(index);
      for_each_ack(
          ledger, ack_run(ledger, ledgers[index], key),
          [&](std::uint64_t request_id, std::uint64_t) {
            if (surviving_requests.contains(request_id)) return;
            out.push_back(
                {"handoff-ack",
                 "guid " + guid_tag(guid) + " request " +
                     std::to_string(request_id) + " was acknowledged by " +
                     "gracefully-departed node " + std::to_string(index) +
                     " but no live honest member still holds it (handoff "
                     "lost it)"});
          });
    }
  }

  // History agreement: every pair of honest replicas must be
  // prefix-consistent after collapsing retried attempts. Skipped for lossy
  // schedules, where a replica that missed a commit round adopts the retry
  // late (see the file comment). Pairs involving a member that joined
  // after epoch 0 use suffix alignment instead of strict prefixes: a late
  // joiner legitimately starts its history at whatever was agreed (or
  // handed off) when it arrived, so its sequence is compared against the
  // matching window of the other member's sequence. When the later
  // joiner's first payload does not occur in the other sequence at all the
  // pair is skipped — the other member may itself be a laggard that has
  // not yet seen the newcomer's window, which read-side (f+1)-agreement
  // absorbs.
  if (!check_order) return;
  std::vector<std::vector<std::uint64_t>> sequences;
  sequences.reserve(honest.size());
  for (sim::NodeAddr addr : honest) {
    sequences.push_back(dedup_payloads(cluster_.host(addr).peer().history(key)));
  }
  for (std::size_t a = 0; a < honest.size(); ++a) {
    for (std::size_t b = a + 1; b < honest.size(); ++b) {
      const std::uint64_t epoch_a =
          cluster_.joined_epoch(static_cast<std::size_t>(honest[a]));
      const std::uint64_t epoch_b =
          cluster_.joined_epoch(static_cast<std::size_t>(honest[b]));
      // `win` is the later joiner, whose history may legitimately be a
      // trailing window of `base`'s sequence.
      const std::vector<std::uint64_t>* win =
          epoch_a >= epoch_b ? &sequences[a] : &sequences[b];
      const std::vector<std::uint64_t>* base =
          epoch_a >= epoch_b ? &sequences[b] : &sequences[a];
      std::size_t offset = 0;
      if (std::max(epoch_a, epoch_b) > 0 && !win->empty()) {
        const auto it = std::find(base->begin(), base->end(), win->front());
        if (it == base->end()) continue;  // No alignment (see above).
        offset = static_cast<std::size_t>(it - base->begin());
      }
      const std::size_t common =
          std::min(win->size(), base->size() - offset);
      for (std::size_t i = 0; i < common; ++i) {
        if ((*win)[i] != (*base)[offset + i]) {
          out.push_back(
              {"history-prefix",
               "guid " + guid_tag(guid) + " nodes " +
                   std::to_string(honest[a]) + " and " +
                   std::to_string(honest[b]) + " diverge at position " +
                   std::to_string(offset + i) + " (" +
                   std::to_string((*win)[i]) + " vs " +
                   std::to_string((*base)[offset + i]) + ")"});
          break;  // One divergence report per pair.
        }
      }
    }
  }
}

}  // namespace asa_repro::storage
