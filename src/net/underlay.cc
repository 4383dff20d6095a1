#include "net/underlay.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "common/hash.h"

namespace locaware::net {

namespace {

/// Union-find over router ids, used for connectivity patching.
class DisjointSets {
 public:
  explicit DisjointSets(size_t n) : parent_(n), rank_(n, 0) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  bool Union(size_t a, size_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    if (rank_[a] < rank_[b]) std::swap(a, b);
    parent_[b] = a;
    if (rank_[a] == rank_[b]) ++rank_[a];
    return true;
  }

 private:
  std::vector<size_t> parent_;
  std::vector<uint8_t> rank_;
};

struct Edge {
  RouterId to;
  double length;  // Euclidean, converted to ms after normalization
};

/// Router graph flattened to compressed sparse rows: the edges leaving `u`
/// are `to[k]`/`length[k]` for k in [offsets[u], offsets[u + 1]), in the
/// order `adj[u]` lists them.
struct CsrGraph {
  explicit CsrGraph(const std::vector<std::vector<Edge>>& adj) : offsets(adj.size() + 1) {
    for (size_t u = 0; u < adj.size(); ++u) offsets[u + 1] = offsets[u] + adj[u].size();
    to.reserve(offsets.back());
    length.reserve(offsets.back());
    for (const std::vector<Edge>& edges : adj) {
      for (const Edge& e : edges) {
        to.push_back(e.to);
        length.push_back(e.length);
      }
    }
  }

  std::vector<size_t> offsets;
  std::vector<RouterId> to;
  std::vector<double> length;
};

/// Indexed 4-ary min-heap of (key, router) with decrease-key. `pos_` maps a
/// router to its heap slot (kAbsent when not queued); a Dijkstra pops every
/// router it pushes, so the heap ends empty with `pos_` all kAbsent and the
/// same instance serves the next source without clearing.
class IndexedQuadHeap {
 public:
  explicit IndexedQuadHeap(size_t n) : pos_(n, kAbsent) { heap_.reserve(n); }

  bool empty() const { return heap_.empty(); }

  /// Inserts `id` with `key`, or lowers its key if it is already queued.
  void PushOrDecrease(RouterId id, double key) {
    size_t slot = pos_[id];
    if (slot == kAbsent) {
      slot = heap_.size();
      heap_.push_back({key, id});
    } else {
      heap_[slot].key = key;
    }
    SiftUp(slot);
  }

  /// Removes and returns the router with the smallest key.
  RouterId PopMin() {
    const RouterId top = heap_.front().id;
    pos_[top] = kAbsent;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_.front() = last;
      SiftDown(0);
    }
    return top;
  }

 private:
  struct Entry {
    double key;
    RouterId id;
  };
  static constexpr uint32_t kAbsent = std::numeric_limits<uint32_t>::max();

  void Place(size_t slot, const Entry& e) {
    heap_[slot] = e;
    pos_[e.id] = static_cast<uint32_t>(slot);
  }

  void SiftUp(size_t slot) {
    const Entry e = heap_[slot];
    while (slot > 0) {
      const size_t parent = (slot - 1) / 4;
      if (heap_[parent].key <= e.key) break;
      Place(slot, heap_[parent]);
      slot = parent;
    }
    Place(slot, e);
  }

  void SiftDown(size_t slot) {
    const Entry e = heap_[slot];
    const size_t n = heap_.size();
    while (true) {
      const size_t first = 4 * slot + 1;
      if (first >= n) break;
      // Select the smallest child without a data-dependent branch: the
      // comparisons are close to coin flips, and as selects they compile to
      // conditional moves (a third off the whole APSP at 1000 routers).
      size_t best = first;
      double best_key = heap_[first].key;
      const size_t end = std::min(first + 4, n);
      for (size_t c = first + 1; c < end; ++c) {
        const double key = heap_[c].key;
        const bool smaller = key < best_key;
        best = smaller ? c : best;
        best_key = smaller ? key : best_key;
      }
      if (!(best_key < e.key)) break;
      Place(slot, heap_[best]);
      slot = best;
    }
    Place(slot, e);
  }

  std::vector<Entry> heap_;
  std::vector<uint32_t> pos_;
};

/// Dijkstra from `source` over `graph`, writing each router's distance (in
/// the edge-length unit) into `dist`, which must hold +inf on entry.
void ShortestPathsFrom(const CsrGraph& graph, RouterId source, IndexedQuadHeap* heap,
                       double* dist) {
  dist[source] = 0.0;
  heap->PushOrDecrease(source, 0.0);
  while (!heap->empty()) {
    const RouterId u = heap->PopMin();
    const double d = dist[u];
    for (size_t k = graph.offsets[u]; k < graph.offsets[u + 1]; ++k) {
      const double nd = d + graph.length[k];
      const RouterId v = graph.to[k];
      if (nd < dist[v]) {
        dist[v] = nd;
        heap->PushOrDecrease(v, nd);
      }
    }
  }
}

}  // namespace

const char* RouterGraphModelName(RouterGraphModel model) {
  switch (model) {
    case RouterGraphModel::kWaxman:
      return "waxman";
    case RouterGraphModel::kBarabasiAlbert:
      return "barabasi-albert";
  }
  return "?";
}

Result<std::unique_ptr<GeometricUnderlay>> GeometricUnderlay::Build(
    const GeometricUnderlayConfig& config, Rng* rng) {
  if (config.num_routers == 0) {
    return Status::InvalidArgument("num_routers must be > 0");
  }
  if (config.num_peers == 0) {
    return Status::InvalidArgument("num_peers must be > 0");
  }
  if (config.num_landmarks > config.num_routers) {
    return Status::InvalidArgument("more landmarks than routers");
  }
  if (config.min_rtt_ms < 0 || config.max_rtt_ms <= config.min_rtt_ms) {
    return Status::InvalidArgument("RTT band must satisfy 0 <= min < max");
  }
  if (config.access_min_ms < 0 || config.access_max_ms < config.access_min_ms) {
    return Status::InvalidArgument("access latency band inverted");
  }
  if (config.model == RouterGraphModel::kBarabasiAlbert &&
      config.ba_links_per_router == 0) {
    return Status::InvalidArgument("ba_links_per_router must be > 0");
  }

  auto underlay = std::unique_ptr<GeometricUnderlay>(new GeometricUnderlay());
  const size_t r = config.num_routers;

  // 1. Place routers uniformly on the unit plane.
  underlay->router_pos_.resize(r);
  for (Point& p : underlay->router_pos_) {
    p.x = rng->NextDouble();
    p.y = rng->NextDouble();
  }

  // 2. Router edges per the configured BRITE model.
  std::vector<std::vector<Edge>> adj(r);
  DisjointSets components(r);
  size_t num_edges = 0;
  const auto add_edge = [&](RouterId u, RouterId v) {
    const double d = Distance(underlay->router_pos_[u], underlay->router_pos_[v]);
    adj[u].push_back({v, d});
    adj[v].push_back({u, d});
    components.Union(u, v);
    ++num_edges;
  };

  if (config.model == RouterGraphModel::kWaxman) {
    // Waxman: P(u,v) = alpha * exp(-d / (beta * L)), L = diagonal.
    const double plane_diag = std::sqrt(2.0);
    for (RouterId u = 0; u < r; ++u) {
      for (RouterId v = u + 1; v < r; ++v) {
        const double d = Distance(underlay->router_pos_[u], underlay->router_pos_[v]);
        const double p =
            config.waxman_alpha * std::exp(-d / (config.waxman_beta * plane_diag));
        if (rng->Bernoulli(p)) add_edge(u, v);
      }
    }
  } else {
    // Barabási–Albert: routers arrive in index order; each attaches
    // `ba_links_per_router` edges to distinct earlier routers chosen with
    // probability proportional to current degree (+1 so isolated seeds can
    // be picked). Connected by construction once r > 1.
    const size_t m = config.ba_links_per_router;
    for (RouterId v = 1; v < r; ++v) {
      const size_t links = std::min<size_t>(m, v);
      std::vector<RouterId> chosen;
      size_t attempts = 0;
      while (chosen.size() < links && attempts < 200 * links) {
        ++attempts;
        // Roulette over degree+1 of routers [0, v).
        size_t total = 0;
        for (RouterId u = 0; u < v; ++u) total += adj[u].size() + 1;
        uint64_t pick = rng->UniformInt(0, total - 1);
        RouterId target = 0;
        for (RouterId u = 0; u < v; ++u) {
          const size_t w = adj[u].size() + 1;
          if (pick < w) {
            target = u;
            break;
          }
          pick -= w;
        }
        if (std::find(chosen.begin(), chosen.end(), target) == chosen.end()) {
          chosen.push_back(target);
        }
      }
      for (RouterId u : chosen) add_edge(v, u);
    }
  }

  // 3. Patch connectivity: repeatedly bridge the closest pair of routers that
  // lie in different components (a lightweight inter-component MST).
  while (true) {
    RouterId best_u = 0, best_v = 0;
    double best_d = std::numeric_limits<double>::infinity();
    bool found = false;
    for (RouterId u = 0; u < r; ++u) {
      for (RouterId v = u + 1; v < r; ++v) {
        if (components.Find(u) == components.Find(v)) continue;
        const double d = Distance(underlay->router_pos_[u], underlay->router_pos_[v]);
        if (d < best_d) {
          best_d = d;
          best_u = u;
          best_v = v;
          found = true;
        }
      }
    }
    if (!found) break;  // single component
    adj[best_u].push_back({best_v, best_d});
    adj[best_v].push_back({best_u, best_d});
    components.Union(best_u, best_v);
    ++num_edges;
  }
  underlay->num_edges_ = num_edges;
  underlay->model_ = config.model;
  underlay->router_degree_.resize(r);
  for (RouterId u = 0; u < r; ++u) {
    underlay->router_degree_[u] = static_cast<uint32_t>(adj[u].size());
  }

  // 4. Router-level APSP in Euclidean units: one Dijkstra per source over a
  // CSR copy of the graph with an indexed 4-ary heap, each writing straight
  // into its row of the matrix. Edge lengths are non-negative and rounded
  // addition is monotone (a <= b implies a + w <= b + w, and a + w >= a), so
  // any exact label-setting Dijkstra that sums outward from the source
  // returns, per target, the minimum over all paths of the same left-to-right
  // rounded sums: heap shape, tie order and adjacency order cannot move a
  // bit. Filling [t][s] from [s][t] would sum in the opposite order, so every
  // row runs its own search.
  const CsrGraph graph(adj);
  IndexedQuadHeap heap(r);
  underlay->router_spath_ms_.assign(r * r, std::numeric_limits<double>::infinity());
  double max_path = 0.0;
  for (RouterId s = 0; s < r; ++s) {
    double* row = underlay->router_spath_ms_.data() + size_t{s} * r;
    ShortestPathsFrom(graph, s, &heap, row);
    for (RouterId t = 0; t < r; ++t) {
      LOCAWARE_CHECK(std::isfinite(row[t])) << "router graph disconnected";
      max_path = std::max(max_path, row[t]);
    }
  }

  // 5. Normalize path lengths into milliseconds so that peer-to-peer RTTs span
  // roughly [min_rtt, max_rtt]: the farthest router pair plus two maximal
  // access links maps to max_rtt, and a same-router pair plus two minimal
  // access links maps to ~min_rtt (access links are shifted up if needed).
  double access_lo = config.access_min_ms;
  double access_hi = config.access_max_ms;
  const double min_core = config.min_rtt_ms / 2.0;  // one-way budget at d = 0
  if (2.0 * access_lo < min_core) {
    const double shift = min_core / 2.0 - access_lo;
    access_lo += shift;
    access_hi += shift;
  }
  const double max_core = config.max_rtt_ms / 2.0 - 2.0 * access_hi;
  const double scale = (max_path > 0 && max_core > 0) ? max_core / max_path : 0.0;
  for (double& d : underlay->router_spath_ms_) d *= scale;

  // 6. Attach peers to uniformly chosen routers with random access latency.
  // Every distinct-pair one-way path crosses two access links, so 4 x the
  // (possibly shifted) access floor lower-bounds all pairwise RTTs — the
  // conservative-lookahead bound the sharded engine runs on.
  underlay->min_pair_rtt_ms_ = 4.0 * access_lo;
  underlay->peer_router_.resize(config.num_peers);
  underlay->peer_access_ms_.resize(config.num_peers);
  // Per-router access floor: the cheapest attached access link, falling back
  // to the global floor for peer-less routers. PairRttLowerBoundMs builds on
  // this — using a min (not the actual two peers involved) keeps it a valid
  // lower bound even for two peers sharing one router.
  underlay->router_min_access_ms_.assign(r, access_lo);
  for (size_t p = 0; p < config.num_peers; ++p) {
    const RouterId router = static_cast<RouterId>(rng->UniformInt(0, r - 1));
    const double access = rng->UniformDouble(access_lo, access_hi);
    underlay->peer_router_[p] = router;
    underlay->peer_access_ms_[p] = access;
  }
  std::vector<char> router_has_peer(r, 0);
  for (size_t p = 0; p < config.num_peers; ++p) {
    const RouterId router = underlay->peer_router_[p];
    double& floor = underlay->router_min_access_ms_[router];
    floor = router_has_peer[router] ? std::min(floor, underlay->peer_access_ms_[p])
                                    : underlay->peer_access_ms_[p];
    router_has_peer[router] = 1;
  }

  // 7. Landmarks: greedy max-min placement over routers, so the k landmarks
  // are spread apart ("well-known machines spread across the Internet").
  if (config.num_landmarks > 0) {
    std::vector<RouterId>& lm = underlay->landmark_router_;
    lm.push_back(static_cast<RouterId>(rng->UniformInt(0, r - 1)));
    while (lm.size() < config.num_landmarks) {
      RouterId best = 0;
      double best_score = -1.0;
      for (RouterId cand = 0; cand < r; ++cand) {
        double nearest = std::numeric_limits<double>::infinity();
        for (RouterId chosen : lm) {
          nearest = std::min(
              nearest,
              Distance(underlay->router_pos_[cand], underlay->router_pos_[chosen]));
        }
        if (nearest > best_score) {
          best_score = nearest;
          best = cand;
        }
      }
      lm.push_back(best);
    }
  }

  return underlay;
}

double GeometricUnderlay::OneWayMs(PeerId a, PeerId b) const {
  LOCAWARE_CHECK_LT(a, peer_router_.size());
  LOCAWARE_CHECK_LT(b, peer_router_.size());
  if (a == b) return 0.0;
  const size_t r = router_pos_.size();
  return peer_access_ms_[a] + peer_access_ms_[b] +
         router_spath_ms_[peer_router_[a] * r + peer_router_[b]];
}

double GeometricUnderlay::RttMs(PeerId a, PeerId b) const { return 2.0 * OneWayMs(a, b); }

double GeometricUnderlay::LandmarkRttMs(PeerId peer, size_t landmark) const {
  LOCAWARE_CHECK_LT(peer, peer_router_.size());
  LOCAWARE_CHECK_LT(landmark, landmark_router_.size());
  const size_t r = router_pos_.size();
  const double one_way =
      peer_access_ms_[peer] +
      router_spath_ms_[peer_router_[peer] * r + landmark_router_[landmark]];
  return 2.0 * one_way;
}

size_t GeometricUnderlay::LocationOf(PeerId peer) const {
  LOCAWARE_CHECK_LT(peer, peer_router_.size());
  return peer_router_[peer];
}

double GeometricUnderlay::PairRttLowerBoundMs(size_t loc_a, size_t loc_b) const {
  LOCAWARE_CHECK_LT(loc_a, router_pos_.size());
  LOCAWARE_CHECK_LT(loc_b, router_pos_.size());
  // Any distinct pair (a on loc_a, b on loc_b) pays access_a + access_b +
  // spath one-way; both access links are bounded below by their routers'
  // floors (for loc_a == loc_b, by twice the shared floor).
  const double one_way = router_min_access_ms_[loc_a] + router_min_access_ms_[loc_b] +
                         router_spath_ms_[loc_a * router_pos_.size() + loc_b];
  return 2.0 * one_way;
}

double GeometricUnderlay::RouterLatencyMs(RouterId a, RouterId b) const {
  LOCAWARE_CHECK_LT(a, router_pos_.size());
  LOCAWARE_CHECK_LT(b, router_pos_.size());
  return router_spath_ms_[a * router_pos_.size() + b];
}

size_t GeometricUnderlay::RouterDegree(RouterId rid) const {
  LOCAWARE_CHECK_LT(rid, router_degree_.size());
  return router_degree_[rid];
}

std::string GeometricUnderlay::Describe() const {
  char buf[160];
  std::snprintf(
      buf, sizeof(buf),
      "GeometricUnderlay{model=%s routers=%zu edges=%zu peers=%zu landmarks=%zu}",
      RouterGraphModelName(model_), num_routers(), num_edges_, num_peers(),
      num_landmarks());
  return buf;
}

Result<std::unique_ptr<UniformUnderlay>> UniformUnderlay::Build(
    const UniformUnderlayConfig& config, Rng* rng) {
  if (config.num_peers == 0) {
    return Status::InvalidArgument("num_peers must be > 0");
  }
  if (config.min_rtt_ms < 0 || config.max_rtt_ms <= config.min_rtt_ms) {
    return Status::InvalidArgument("RTT band must satisfy 0 <= min < max");
  }
  auto u = std::unique_ptr<UniformUnderlay>(new UniformUnderlay());
  u->num_peers_ = config.num_peers;
  u->num_landmarks_ = config.num_landmarks;
  u->min_rtt_ms_ = config.min_rtt_ms;
  u->max_rtt_ms_ = config.max_rtt_ms;
  u->pair_seed_ = rng->NextU64();
  return u;
}

double UniformUnderlay::RttMs(PeerId a, PeerId b) const {
  LOCAWARE_CHECK_LT(a, num_peers_);
  LOCAWARE_CHECK_LT(b, num_peers_);
  if (a == b) return 0.0;
  // Symmetric pair hash -> uniform double -> RTT band. No storage, no
  // geometry, stable across calls. Mix64 gives full avalanche; plain
  // HashCombine would leave the high bits nearly constant for small ids.
  const uint64_t lo = std::min(a, b);
  const uint64_t hi = std::max(a, b);
  const uint64_t h = Mix64(pair_seed_ ^ Mix64(lo * 0x9e3779b97f4a7c15ULL + hi));
  const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;
  return min_rtt_ms_ + (max_rtt_ms_ - min_rtt_ms_) * unit;
}

double UniformUnderlay::LandmarkRttMs(PeerId peer, size_t landmark) const {
  LOCAWARE_CHECK_LT(peer, num_peers_);
  LOCAWARE_CHECK_LT(landmark, num_landmarks_);
  const uint64_t h = Mix64((pair_seed_ ^ 0xabcdef12345678ULL) +
                           Mix64(peer * 0xc2b2ae3d27d4eb4fULL + landmark));
  const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;
  return min_rtt_ms_ + (max_rtt_ms_ - min_rtt_ms_) * unit;
}

std::string UniformUnderlay::Describe() const {
  char buf[120];
  std::snprintf(buf, sizeof(buf), "UniformUnderlay{peers=%zu landmarks=%zu}",
                num_peers_, num_landmarks_);
  return buf;
}

}  // namespace locaware::net
