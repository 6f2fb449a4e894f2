#include "oracle.h"

#include <algorithm>

#include "graph/dijkstra.h"
#include "util/thread_pool.h"

namespace servebench {
namespace {

using dsig::serve::Degradation;
using dsig::serve::Response;
using dsig::serve::ResponseStatus;

std::string CheckStatus(const Response& response) {
  if (response.status != ResponseStatus::kOk) {
    return std::string("status ") +
           dsig::serve::ResponseStatusName(response.status);
  }
  if (response.degradation != Degradation::kNone) {
    return std::string("degraded answer (") +
           dsig::serve::DegradationName(response.degradation) + ")";
  }
  return "";
}

// Object ids in range and pairwise distinct.
std::string CheckObjectIds(size_t num_objects,
                           const std::vector<uint32_t>& objects) {
  std::vector<uint32_t> sorted = objects;
  std::sort(sorted.begin(), sorted.end());
  if (!sorted.empty() && sorted.back() >= num_objects) {
    return "object id out of range";
  }
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return "duplicate object";
  }
  return "";
}

}  // namespace

Oracle::Oracle(const dsig::RoadNetwork& graph, std::vector<NodeId> objects)
    : objects_(std::move(objects)),
      dist_(objects_.size() * graph.num_nodes()) {
  dsig::ThreadPool::Global().ParallelFor(objects_.size(), [&](size_t o) {
    const dsig::ShortestPathTree tree = dsig::RunDijkstra(graph, objects_[o]);
    for (size_t n = 0; n < tree.dist.size(); ++n) {
      dist_[n * objects_.size() + o] = tree.dist[n];
    }
  });
}

PairList Oracle::JoinPairs(Weight epsilon) const {
  PairList pairs;
  for (uint32_t a = 0; a < objects_.size(); ++a) {
    for (uint32_t b = 0; b < objects_.size(); ++b) {
      if (Distance(a, objects_[b]) <= epsilon) pairs.emplace_back(a, b);
    }
  }
  return pairs;
}

std::string Oracle::CheckKnn(NodeId node, uint32_t k, int type,
                             const Response& response) const {
  std::string why = CheckKnnShape(objects_.size(), k, type, response);
  if (!why.empty()) return why;

  std::vector<Weight> truth(objects_.size());
  for (uint32_t o = 0; o < objects_.size(); ++o) truth[o] = Distance(o, node);
  const size_t kk = response.objects.size();
  std::partial_sort(truth.begin(), truth.begin() + static_cast<long>(kk),
                    truth.end());
  truth.resize(kk);

  std::vector<Weight> got(kk);
  for (size_t i = 0; i < kk; ++i) {
    got[i] = Distance(response.objects[i], node);
    if (type == 1 && got[i] != response.distances[i]) {
      return "type-1 distance differs from the object's true distance";
    }
    if (type == 2 && i > 0 && got[i] < got[i - 1]) {
      return "type-2 answer not in distance order";
    }
  }
  std::sort(got.begin(), got.end());
  if (got != truth) return "not the k nearest objects";
  return "";
}

std::string Oracle::CheckRange(NodeId node, Weight epsilon,
                               const Response& response) const {
  std::string why = CheckRangeShape(objects_.size(), response);
  if (!why.empty()) return why;
  std::vector<uint32_t> expected;
  for (uint32_t o = 0; o < objects_.size(); ++o) {
    if (Distance(o, node) <= epsilon) expected.push_back(o);
  }
  std::vector<uint32_t> got = response.objects;
  std::sort(got.begin(), got.end());
  if (got != expected) {
    return "range answer differs from the objects within epsilon";
  }
  return "";
}

std::string CheckJoin(const PairList& expected, const Response& response) {
  std::string why = CheckStatus(response);
  if (!why.empty()) return why;
  if (response.pair_left.size() != response.pair_right.size()) {
    return "join pair arrays differ in length";
  }
  PairList got;
  got.reserve(response.pair_left.size());
  for (size_t i = 0; i < response.pair_left.size(); ++i) {
    got.emplace_back(response.pair_left[i], response.pair_right[i]);
  }
  std::sort(got.begin(), got.end());
  if (got != expected) {
    return "join answer differs from the pairs within epsilon";
  }
  return "";
}

std::string CheckKnnShape(size_t num_objects, uint32_t k, int type,
                          const Response& response) {
  std::string why = CheckStatus(response);
  if (!why.empty()) return why;
  if (response.objects.size() != std::min<size_t>(k, num_objects)) {
    return "wrong number of kNN objects";
  }
  why = CheckObjectIds(num_objects, response.objects);
  if (!why.empty()) return why;
  if (type == 1) {
    if (response.distances.size() != response.objects.size()) {
      return "type-1 answer without aligned distances";
    }
    if (!std::is_sorted(response.distances.begin(),
                        response.distances.end())) {
      return "type-1 distances not non-decreasing";
    }
  }
  return "";
}

std::string CheckRangeShape(size_t num_objects, const Response& response) {
  std::string why = CheckStatus(response);
  if (!why.empty()) return why;
  return CheckObjectIds(num_objects, response.objects);
}

}  // namespace servebench
