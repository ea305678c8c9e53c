#include "core/distributed.hpp"

#include <stdexcept>

#include "ecc/reed_muller.hpp"

namespace pufatt::core {

namespace {

const ecc::ReedMuller1& shared_code() {
  static const ecc::ReedMuller1 code(5);
  return code;
}

}  // namespace

DistributedNetwork::DistributedNetwork(
    const DistributedParams& params,
    const std::vector<std::pair<std::size_t, NodeHealth>>& compromised,
    std::uint64_t seed)
    : params_(params), code_(&shared_code()) {
  if (params.num_nodes < 3) {
    throw std::invalid_argument("DistributedNetwork: need >= 3 nodes");
  }
  if (params.degree == 0 || 2 * params.degree >= params.num_nodes) {
    throw std::invalid_argument("DistributedNetwork: bad ring degree");
  }
  if (params.quorum == 0 || params.quorum > 2 * params.degree) {
    throw std::invalid_argument("DistributedNetwork: bad quorum");
  }

  // Shared firmware for the whole deployment.
  support::Xoshiro256pp rng(seed);
  std::vector<std::uint32_t> firmware(600);
  for (auto& w : firmware) w = static_cast<std::uint32_t>(rng.next());
  const auto image = make_enrolled_image(params.profile, firmware);

  nodes_.resize(params.num_nodes);
  for (std::size_t i = 0; i < params.num_nodes; ++i) {
    Node& node = nodes_[i];
    node.device = std::make_unique<alupuf::PufDevice>(
        params.profile.puf_config, seed + 1000 + i, *code_);
    node.record = enroll(*node.device, params.profile, image);
    node.verifier_of_me =
        std::make_unique<Verifier>(node.record, *code_, params.radio);
    if (params.crp_entries_per_node > 0) {
      // Verification option 1: the trusted party also records a bounded
      // single-use CRP database per node at deployment time.
      support::Xoshiro256pp crp_rng(seed + 9000 + i);
      node.crp_db_of_me = std::make_unique<CrpDatabase>(CrpDatabase::collect(
          node.device->raw_puf(), params.crp_entries_per_node, crp_rng));
    }
  }
  for (const auto& [index, health] : compromised) {
    if (index >= nodes_.size()) {
      throw std::invalid_argument("DistributedNetwork: bad compromised index");
    }
    nodes_[index].health = health;
  }

  // Provers reflect the ground truth.
  for (std::size_t i = 0; i < params.num_nodes; ++i) {
    Node& node = nodes_[i];
    auto record = node.record;
    auto variant = CpuProver::Variant::kHonest;
    switch (node.health) {
      case NodeHealth::kHealthy:
        break;
      case NodeHealth::kNaiveMalware:
        for (std::size_t w = 700; w < 800 && w < record.enrolled_image.size();
             ++w) {
          record.enrolled_image[w] ^= 0xBAD0BAD0u;
        }
        break;
      case NodeHealth::kHidingMalware:
        variant = CpuProver::Variant::kRedirectMalware;
        break;
    }
    node.prover = std::make_unique<CpuProver>(*node.device, record, variant,
                                              seed + 5000 + i);
  }

  partitioned_.assign(params.num_nodes, false);

  // k-connected ring adjacency.
  adjacency_.resize(params.num_nodes);
  for (std::size_t i = 0; i < params.num_nodes; ++i) {
    for (std::size_t d = 1; d <= params.degree; ++d) {
      adjacency_[i].push_back((i + d) % params.num_nodes);
      adjacency_[i].push_back((i + params.num_nodes - d) % params.num_nodes);
    }
  }
}

std::size_t DistributedNetwork::crp_remaining(std::size_t node) const {
  if (node >= nodes_.size()) {
    throw std::invalid_argument("DistributedNetwork: bad node index");
  }
  return nodes_[node].crp_db_of_me ? nodes_[node].crp_db_of_me->remaining()
                                   : 0;
}

std::vector<NodeVerdict> DistributedNetwork::run_crp_round(
    support::Xoshiro256pp& rng) {
  if (params_.crp_entries_per_node == 0) {
    throw std::logic_error(
        "DistributedNetwork: CRP audits need crp_entries_per_node > 0");
  }
  std::vector<NodeVerdict> verdicts(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    verdicts[i].truth = nodes_[i].health;
  }
  for (std::size_t auditor = 0; auditor < nodes_.size(); ++auditor) {
    for (const auto target : adjacency_[auditor]) {
      NodeVerdict& verdict = verdicts[target];
      ++verdict.audits;
      if (partitioned_[auditor] || partitioned_[target]) {
        // Dead zone: the challenge never reaches the target.  No database
        // entry is spent on an audit that cannot complete.
        ++verdict.inconclusive;
        continue;
      }
      // Malware does not alter the PUF, so the audited silicon is the
      // target's real device regardless of its software health.
      const auto result =
          nodes_[target].crp_db_of_me->authenticate(
              nodes_[target].device->raw_puf(), rng);
      if (!result.conclusive()) {
        // Exhausted database = no evidence, mirroring the transport rule:
        // running dry must never read as a rejection of a healthy node.
        ++verdict.inconclusive;
        continue;
      }
      ++verdict.completed;
      if (!result.accepted) ++verdict.rejections;
    }
  }
  for (auto& verdict : verdicts) {
    verdict.evidence_met = verdict.completed >= params_.min_evidence;
    verdict.convicted =
        verdict.evidence_met && verdict.rejections >= params_.quorum;
  }
  return verdicts;
}

void DistributedNetwork::set_partitioned(std::size_t node, bool partitioned) {
  if (node >= nodes_.size()) {
    throw std::invalid_argument("DistributedNetwork: bad node index");
  }
  partitioned_[node] = partitioned;
}

std::vector<NodeVerdict> DistributedNetwork::run_round(
    support::Xoshiro256pp& rng) {
  std::vector<NodeVerdict> verdicts(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    verdicts[i].truth = nodes_[i].health;
  }

  for (std::size_t auditor = 0; auditor < nodes_.size(); ++auditor) {
    for (const auto target : adjacency_[auditor]) {
      // The auditor holds the target's enrollment record and drives the
      // full retrying PUFatt session against it over its own faulty link.
      FaultParams faults = params_.radio_faults;
      if (partitioned_[auditor] || partitioned_[target]) {
        faults.loss_prob = 1.0;
        faults.burst = false;
      }
      FaultyChannel link(params_.radio, faults, rng.next());
      const Verifier& verifier = *nodes_[target].verifier_of_me;
      AttestationSession session(verifier, link, params_.session);
      const auto outcome = session.run(
          [&](const AttestationRequest& request) {
            auto reply = nodes_[target].prover->respond(request);
            return ProverReply{std::move(reply.response), reply.compute_us};
          },
          rng);

      NodeVerdict& verdict = verdicts[target];
      ++verdict.audits;
      verdict.packets_lost += link.counters().packets_lost;
      verdict.packets_corrupted += link.counters().packets_corrupted;
      if (outcome.conclusive()) {
        ++verdict.completed;
        if (!outcome.accepted()) ++verdict.rejections;
      } else {
        // Silence is not evidence: a node in a dead zone must not be
        // convicted because its responses never arrived.
        ++verdict.inconclusive;
      }
    }
  }
  for (auto& verdict : verdicts) {
    verdict.evidence_met = verdict.completed >= params_.min_evidence;
    verdict.convicted =
        verdict.evidence_met && verdict.rejections >= params_.quorum;
  }
  return verdicts;
}

}  // namespace pufatt::core
