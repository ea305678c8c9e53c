// Distributed software-based attestation (Yang et al., SRDS 2007 — the
// paper's reference [37], one of its cited SWAT() instantiations).
//
// In a sensor network the powerful verifier is not always reachable, so
// nodes attest *each other*: every node carries the enrollment records of
// its neighbours (distributed at deployment), challenges them periodically
// over the radio, and a node is convicted when a quorum of its neighbours
// reject it.  Because each pairwise attestation is the full PUFatt
// protocol, a compromised node can neither fake its own responses nor
// (thanks to PUF binding) proxy them to an accomplice.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/crp_database.hpp"
#include "core/enrollment.hpp"
#include "core/faulty_channel.hpp"
#include "core/protocol.hpp"
#include "core/session.hpp"

namespace pufatt::core {

/// Role a node plays in the experiment (ground truth).
enum class NodeHealth {
  kHealthy,
  kNaiveMalware,     ///< tampered image, no hiding
  kHidingMalware,    ///< memory-redirection attack
};

struct DistributedParams {
  std::size_t num_nodes = 8;
  /// Each node links to the next `degree` nodes in a ring (so every node
  /// has 2*degree neighbours) — the standard k-connected ring topology.
  std::size_t degree = 2;
  /// Neighbours that must reject before a node is convicted.
  std::size_t quorum = 2;
  ChannelParams radio{.bandwidth_bps = 250'000.0, .latency_us = 3'000.0};
  /// Fault process applied to every radio link (default: perfect link).
  FaultParams radio_faults{};
  /// Retry/timeout/backoff policy each auditor uses per audit.
  SessionPolicy session{};
  /// Completed (conclusive) audits required before a conviction counts.
  /// With radio faults a node in a dead zone completes zero audits; the
  /// evidence floor keeps silence from reading as guilt.
  std::size_t min_evidence = 1;
  /// When > 0, the deployment also distributes a single-use CRP database
  /// of this many entries per node (the paper's first verification
  /// option), enabling run_crp_round() hardware-identity audits.
  std::size_t crp_entries_per_node = 0;
  DeviceProfile profile = DeviceProfile::small();
};

/// Per-node verdict after an audit round.
struct NodeVerdict {
  NodeHealth truth = NodeHealth::kHealthy;
  std::size_t rejections = 0;    ///< completed audits that rejected this node
  std::size_t audits = 0;        ///< neighbours that attempted an audit
  std::size_t completed = 0;     ///< audits that reached accept/reject
  std::size_t inconclusive = 0;  ///< audits starved by the transport
  std::size_t packets_lost = 0;       ///< radio losses across this node's audits
  std::size_t packets_corrupted = 0;  ///< corrupted frames across its audits
  /// rejections >= quorum AND completed >= min_evidence.
  bool convicted = false;
  /// True when the round gathered enough evidence to judge this node at
  /// all; a false value marks a dead-zone node needing re-audit.
  bool evidence_met = false;
};

/// A simulated network of PUFatt nodes performing mutual attestation.
class DistributedNetwork {
 public:
  /// Builds the fleet: distinct dice, shared firmware, per-pair verifier
  /// state.  `compromised` assigns ground-truth roles by node index
  /// (missing indices are healthy).
  DistributedNetwork(const DistributedParams& params,
                     const std::vector<std::pair<std::size_t, NodeHealth>>&
                         compromised,
                     std::uint64_t seed);

  /// One audit round: every node challenges all of its neighbours through
  /// its own faulty radio link, driving a full retrying session per audit.
  /// Returns the verdicts (conviction = rejections >= quorum over the
  /// audits that actually completed, subject to the evidence floor).
  std::vector<NodeVerdict> run_round(support::Xoshiro256pp& rng);

  /// One CRP-database audit round (requires crp_entries_per_node > 0,
  /// throws std::logic_error otherwise): every node replays the next
  /// unused entry of each neighbour's distributed CRP database against
  /// that neighbour's physical PUF.  This is the paper's verification
  /// option 1 — it authenticates the *silicon*, not the software image,
  /// so malware-carrying nodes with genuine hardware still pass; what it
  /// catches is substituted/cloned hardware.  Tally rule: an exhausted
  /// database yields no evidence (AuthResult::conclusive() is false) and
  /// lands in `inconclusive`, never in `rejections` — running out of
  /// entries must not convict a healthy node, exactly like transport
  /// starvation in run_round().
  std::vector<NodeVerdict> run_crp_round(support::Xoshiro256pp& rng);

  /// Unused CRP-database entries left for audits of `node`.
  std::size_t crp_remaining(std::size_t node) const;

  /// Marks a node as (un)reachable: every link touching it drops all
  /// traffic, modelling a radio dead zone.  Its audits become
  /// inconclusive, never rejections.
  void set_partitioned(std::size_t node, bool partitioned);
  bool partitioned(std::size_t node) const { return partitioned_.at(node); }

  std::size_t num_nodes() const { return nodes_.size(); }
  const std::vector<std::size_t>& neighbours(std::size_t node) const {
    return adjacency_.at(node);
  }

 private:
  struct Node {
    std::unique_ptr<alupuf::PufDevice> device;
    EnrollmentRecord record;           ///< this node's own enrollment
    std::unique_ptr<CpuProver> prover; ///< how it actually answers
    std::unique_ptr<Verifier> verifier_of_me;  ///< what neighbours hold
    /// Single-use CRP database neighbours audit this node against
    /// (only when DistributedParams::crp_entries_per_node > 0).
    std::unique_ptr<CrpDatabase> crp_db_of_me;
    NodeHealth health = NodeHealth::kHealthy;
  };

  DistributedParams params_;
  const ecc::BinaryCode* code_;
  std::vector<Node> nodes_;
  std::vector<std::vector<std::size_t>> adjacency_;
  std::vector<bool> partitioned_;
};

}  // namespace pufatt::core
