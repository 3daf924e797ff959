#include "flow/flow_network.h"

#include <stdexcept>

namespace tb::flow {

FlowNetwork::FlowNetwork(const Graph& g) : g_(&g) {
  if (!g.finalized()) {
    throw std::invalid_argument("FlowNetwork: graph not finalized");
  }
  res_.resize(static_cast<std::size_t>(g.num_arcs()));
  double max_cap = 0.0;
  for (int a = 0; a < g.num_arcs(); ++a) {
    res_[static_cast<std::size_t>(a)] = g.arc_cap(a);
    if (g.arc_cap(a) > max_cap) max_cap = g.arc_cap(a);
  }
  tol_ = 1e-12 * (max_cap > 1.0 ? max_cap : 1.0);
  dirty_.assign(res_.size(), 0);
}

}  // namespace tb::flow
