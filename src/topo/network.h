// The Network abstraction: a switch-level graph plus server attachment.
//
// Paper model (§II-A): servers send/receive traffic and connect to exactly
// one switch over an infinite-capacity link; switch-switch links have
// capacity 1 unless a topology says otherwise. Because server links are
// infinite, traffic matrices reduce to switch-to-switch demands where a
// switch with s attached servers can originate and sink up to s units
// (hose model). Server-centric designs (BCube, DCell) model each server as
// a forwarding node carrying one attached terminal, so servers participate
// in routing exactly as those designs intend.
#pragma once

#include <string>
#include <vector>

#include "graph/graph.h"

namespace tb {

/// A shared-risk link group: edges that plausibly fail together because
/// they share physical substrate — a cable bundle, a pod PDU, a dimension
/// plane, a site-to-site trunk. Groups are derived structurally by each
/// topology builder (see the builders and ensure_risk_groups) and consumed
/// by the scenario layer (mcf::ScenarioSpec::failed_groups). Groups may
/// overlap; `edges` holds edge ids, strictly ascending and unique.
struct RiskGroup {
  std::string label;
  std::vector<int> edges;
};

struct Network {
  std::string name;
  Graph graph;               ///< switch-level topology (finalized)
  std::vector<int> servers;  ///< servers attached to each node
  /// Shared-risk link groups of this instance, in builder order. Inert
  /// metadata for every solver path — only scenario application reads it —
  /// so two networks differing only in risk_groups solve identically.
  std::vector<RiskGroup> risk_groups;

  /// Total attached servers.
  int total_servers() const;

  /// Node ids that have at least one server ("hosts" / ToRs).
  std::vector<int> host_nodes() const;

  /// Sanity checks: finalized graph, connected, server vector sized to the
  /// node count with non-negative entries, at least one server attached,
  /// and every risk group well-formed (non-empty label, non-empty strictly
  /// ascending edge ids in range). Throws std::logic_error on violation.
  void validate() const;
};

/// Attach `per_switch` servers to every node (the paper's convention for
/// networks without prescribed server locations).
void attach_servers_uniform(Network& net, int per_switch);

/// Append one risk group: sorts and dedups `edges`, validates every id
/// against the (finalized) graph, and drops the group silently when the
/// edge list comes out empty. Throws std::out_of_range on a bad edge id
/// and std::invalid_argument on an empty label.
void add_risk_group(Network& net, std::string label, std::vector<int> edges);

/// Generic structural fallback for builders without a bespoke derivation:
/// when `net.risk_groups` is empty, adds one group per switch bundling its
/// incident links (label "switch(<v>)") — the line-card / ToR-chassis
/// failure unit every topology has. No-op when groups already exist, so
/// bespoke builder groups always win.
void ensure_risk_groups(Network& net);

}  // namespace tb
