#include "sched/priority.hpp"

#include <algorithm>
#include <numeric>

#include "mii/min_dist.hpp"
#include "sched/height_r.hpp"
#include "support/rng.hpp"

namespace ims::sched {

namespace {

/**
 * Per-attempt RNG derivation for PriorityScheme::kRandom: a SplitMix64
 * finalizer over (seed, ii), so the permutation is a pure function of
 * the user seed and the candidate II. Every candidate II draws an
 * independent permutation, and the draw depends on no shared scheduler
 * state, so an attempt's result depends only on its inputs and its II.
 */
std::uint64_t
mixSeedWithIi(std::uint64_t seed, int ii)
{
    std::uint64_t z =
        seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(ii) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

std::string
prioritySchemeName(PriorityScheme scheme)
{
    switch (scheme) {
      case PriorityScheme::kHeightR:
        return "heightr";
      case PriorityScheme::kSlack:
        return "slack";
      case PriorityScheme::kSourceOrder:
        return "source-order";
      case PriorityScheme::kRandom:
        return "random";
    }
    return "?";
}

std::optional<PriorityScheme>
prioritySchemeByName(std::string_view name)
{
    for (const auto scheme :
         {PriorityScheme::kHeightR, PriorityScheme::kSlack,
          PriorityScheme::kSourceOrder, PriorityScheme::kRandom}) {
        if (name == prioritySchemeName(scheme))
            return scheme;
    }
    return std::nullopt;
}

void
computePrioritiesInto(const graph::DepGraph& graph,
                      const graph::SccResult& sccs, int ii,
                      PriorityScheme scheme, std::uint64_t seed,
                      support::Counters* counters,
                      PriorityWorkspace& workspace)
{
    const int n = graph.numVertices();
    auto& priorities = workspace.priorities;
    switch (scheme) {
      case PriorityScheme::kHeightR:
        computeHeightRInto(graph, sccs, ii, counters, priorities);
        return;

      case PriorityScheme::kSlack: {
        // slack(v) = LatestStart(v) - EarliestStart(v) where
        // EarliestStart(v) = MinDist[START, v] and
        // LatestStart(v) = MinDist[START, STOP] - MinDist[v, STOP].
        if (!workspace.slackDist)
            workspace.slackDist.emplace(graph, ii, counters);
        else if (workspace.slackDist->ii() != ii)
            workspace.slackDist->recompute(ii, counters);
        const mii::MinDistMatrix& dist = *workspace.slackDist;
        const std::int64_t makespan =
            dist.atVertex(graph.start(), graph.stop());
        priorities.assign(n, 0);
        for (graph::VertexId v = 0; v < n; ++v) {
            const std::int64_t early = dist.atVertex(graph.start(), v);
            const std::int64_t to_stop = dist.atVertex(v, graph.stop());
            const std::int64_t late = makespan - to_stop;
            priorities[v] = -(late - early); // least slack = highest
        }
        return;
      }

      case PriorityScheme::kSourceOrder: {
        priorities.assign(n, 0);
        for (graph::VertexId v = 0; v < n; ++v)
            priorities[v] = -v;
        // START must still come first; STOP last.
        priorities[graph.start()] = INT64_MAX / 2;
        priorities[graph.stop()] = INT64_MIN / 2;
        return;
      }

      case PriorityScheme::kRandom: {
        priorities.assign(n, 0);
        auto& permutation = workspace.permutation;
        permutation.resize(n);
        std::iota(permutation.begin(), permutation.end(), 0);
        support::Rng rng(mixSeedWithIi(seed, ii));
        for (int i = n - 1; i > 0; --i)
            std::swap(permutation[i], permutation[rng.uniformInt(0, i)]);
        for (graph::VertexId v = 0; v < n; ++v)
            priorities[v] = permutation[v];
        priorities[graph.start()] = INT64_MAX / 2;
        priorities[graph.stop()] = INT64_MIN / 2;
        return;
      }
    }
    priorities.assign(n, 0);
}

} // namespace ims::sched
