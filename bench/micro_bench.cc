// Microbenchmarks for the columnar hot-path substrate (docs/performance.md).
//
// Each kernel is timed in two shapes inside one binary:
//   legacy   — the pre-columnar code shape: checked hierarchy(attr)
//              accessors per call, nested-vector cost tables, per-row
//              Record materialization;
//   columnar — the LossKernels / flat-buffer path the engines use now.
//
// The two shapes are verified to produce bitwise-identical results before
// anything is timed, so a reported speedup is never purchased with a
// different answer. Results go to stdout; --json[=path] also writes the
// machine-readable BENCH_micro.json tracked at the repo root (refresh
// workflow in docs/performance.md).
//
// Everything runs on one thread: these are per-kernel numbers, the
// parallel-scaling story lives in runtime_bench.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "kanon/algo/agglomerative_engine.h"
#include "kanon/algo/core/closure_store.h"
#include "kanon/algo/core/cluster_set.h"
#include "kanon/algo/distance.h"
#include "kanon/algo/policy.h"
#include "kanon/common/check.h"
#include "kanon/data/dataset.h"
#include "kanon/generalization/scheme.h"
#include "kanon/loss/entropy_measure.h"
#include "kanon/loss/kernels.h"
#include "kanon/loss/precomputed_loss.h"

namespace kanon {
namespace {

using Clock = std::chrono::steady_clock;

// Foils dead-code elimination of the timed loops.
double g_sink = 0.0;

struct KernelTiming {
  std::string name;
  size_t items;        // Work units per repetition (for the per-item rate).
  double legacy_ns;    // Best-of-reps wall time, one repetition.
  double columnar_ns;
  double speedup() const { return legacy_ns / columnar_ns; }
};

// Best-of-`reps` wall time of fn() in nanoseconds. Best-of (not mean)
// because the interesting number is the undisturbed run.
template <typename Fn>
double TimeNs(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point stop = Clock::now();
    best = std::min(
        best, static_cast<double>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      stop - start)
                      .count()));
  }
  return best;
}

// The pre-refactor cost table shape: one vector per attribute, indexed by
// SetId, behind a second pointer chase.
std::vector<std::vector<double>> NestedCosts(const GeneralizationScheme& scheme,
                                             const PrecomputedLoss& loss) {
  std::vector<std::vector<double>> costs(scheme.num_attributes());
  for (size_t j = 0; j < scheme.num_attributes(); ++j) {
    const size_t num_sets = scheme.hierarchy(j).num_sets();
    costs[j].resize(num_sets);
    for (size_t s = 0; s < num_sets; ++s) {
      costs[j][s] = loss.EntryCost(j, static_cast<SetId>(s));
    }
  }
  return costs;
}

// Legacy agglomerative UnionCost: checked hierarchy accessor and nested
// cost vectors per attribute, per pair.
double LegacyUnionCost(const GeneralizationScheme& scheme,
                       const std::vector<std::vector<double>>& costs,
                       const GeneralizedRecord& a, const GeneralizedRecord& b) {
  const size_t r = a.size();
  double total = 0.0;
  for (size_t j = 0; j < r; ++j) {
    total += costs[j][scheme.hierarchy(j).Join(a[j], b[j])];
  }
  return total / static_cast<double>(r);
}

// Legacy (k,1) joined cost: closure + row through checked accessors.
double LegacyJoinedCost(const GeneralizationScheme& scheme,
                        const std::vector<std::vector<double>>& costs,
                        const Dataset& dataset,
                        const GeneralizedRecord& closure, uint32_t row) {
  const size_t r = closure.size();
  double total = 0.0;
  for (size_t j = 0; j < r; ++j) {
    total +=
        costs[j][scheme.hierarchy(j).JoinValue(closure[j], dataset.at(row, j))];
  }
  return total / static_cast<double>(r);
}

// Legacy closure of a row set: per-row Record materialization plus checked
// accessors, as the pre-columnar ClosureOfRows did.
GeneralizedRecord LegacyClosureOfRows(const GeneralizationScheme& scheme,
                                      const Dataset& dataset,
                                      const std::vector<uint32_t>& rows) {
  GeneralizedRecord acc = scheme.Identity(dataset.row(rows[0]));
  const size_t r = acc.size();
  for (size_t i = 1; i < rows.size(); ++i) {
    const Record rec = dataset.row(rows[i]);
    for (size_t j = 0; j < r; ++j) {
      acc[j] = scheme.hierarchy(j).JoinValue(acc[j], rec[j]);
    }
  }
  return acc;
}

// --- Kernel 1: the agglomerative distance-phase / forest nearest-neighbor
// kernel. Legacy: one UnionCost call per pair over precomputed singleton
// closures (exactly the init scan before the refactor). Columnar: one
// PairCostSweep per anchor row.
KernelTiming BenchPairSweep(const Dataset& dataset,
                            const GeneralizationScheme& scheme,
                            const LossKernels& kernels,
                            const std::vector<std::vector<double>>& costs,
                            const std::vector<GeneralizedRecord>& singles,
                            int reps) {
  const size_t n = dataset.num_rows();
  std::vector<double> sweep(n);

  // Bitwise equivalence first, on a row sample (full check is O(n²) too).
  for (uint32_t u = 0; u < n; u += 17) {
    kernels.PairCostSweep(u, sweep.data());
    for (uint32_t v = 0; v < n; ++v) {
      KANON_CHECK(sweep[v] ==
                      LegacyUnionCost(scheme, costs, singles[u], singles[v]),
                  "pair-sweep kernel diverged from the legacy loop");
    }
  }

  KernelTiming t;
  t.name = "agglomerative_distance_pair_sweep";
  t.items = n * n;
  t.legacy_ns = TimeNs(reps, [&] {
    double sink = 0.0;
    for (uint32_t u = 0; u < n; ++u) {
      for (uint32_t v = 0; v < n; ++v) {
        sink += LegacyUnionCost(scheme, costs, singles[u], singles[v]);
      }
    }
    g_sink += sink;
  });
  t.columnar_ns = TimeNs(reps, [&] {
    double sink = 0.0;
    for (uint32_t u = 0; u < n; ++u) {
      kernels.PairCostSweep(u, sweep.data());
      for (uint32_t v = 0; v < n; ++v) sink += sweep[v];
    }
    g_sink += sink;
  });
  return t;
}

// --- Kernel 2: the (k,1) joined-cost scan of K1NearestNeighbors /
// K1GreedyExpansion.
KernelTiming BenchJoinedSweep(const Dataset& dataset,
                              const GeneralizationScheme& scheme,
                              const LossKernels& kernels,
                              const std::vector<std::vector<double>>& costs,
                              const std::vector<GeneralizedRecord>& singles,
                              int reps) {
  const size_t n = dataset.num_rows();
  std::vector<double> sweep(n);

  for (uint32_t u = 0; u < n; u += 17) {
    kernels.JoinedCostSweep(singles[u], sweep.data());
    for (uint32_t v = 0; v < n; ++v) {
      KANON_CHECK(sweep[v] ==
                      LegacyJoinedCost(scheme, costs, dataset, singles[u], v),
                  "joined-sweep kernel diverged from the legacy loop");
    }
  }

  KernelTiming t;
  t.name = "k1_joined_cost_sweep";
  t.items = n * n;
  t.legacy_ns = TimeNs(reps, [&] {
    double sink = 0.0;
    for (uint32_t u = 0; u < n; ++u) {
      for (uint32_t v = 0; v < n; ++v) {
        sink += LegacyJoinedCost(scheme, costs, dataset, singles[u], v);
      }
    }
    g_sink += sink;
  });
  t.columnar_ns = TimeNs(reps, [&] {
    double sink = 0.0;
    for (uint32_t u = 0; u < n; ++u) {
      kernels.JoinedCostSweep(singles[u], sweep.data());
      for (uint32_t v = 0; v < n; ++v) sink += sweep[v];
    }
    g_sink += sink;
  });
  return t;
}

// --- Kernel 3: ClosureOfRows over cluster-sized row sets (the closure
// primitive behind interning, shrink and the brute-force search).
KernelTiming BenchClosure(const Dataset& dataset,
                          const GeneralizationScheme& scheme, int reps) {
  const size_t n = dataset.num_rows();
  const size_t cluster_size = 16;
  // Deterministic pseudo-random clusters (xorshift; no global RNG).
  std::vector<std::vector<uint32_t>> clusters;
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (size_t c = 0; c < 512; ++c) {
    std::vector<uint32_t> rows(cluster_size);
    for (uint32_t& row : rows) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      row = static_cast<uint32_t>(state % n);
    }
    clusters.push_back(std::move(rows));
  }

  for (const std::vector<uint32_t>& rows : clusters) {
    KANON_CHECK(scheme.ClosureOfRows(dataset, rows) ==
                    LegacyClosureOfRows(scheme, dataset, rows),
                "closure kernel diverged from the legacy loop");
  }

  KernelTiming t;
  t.name = "closure_of_rows";
  t.items = clusters.size() * cluster_size;
  t.legacy_ns = TimeNs(reps, [&] {
    size_t sink = 0;
    for (const std::vector<uint32_t>& rows : clusters) {
      sink += LegacyClosureOfRows(scheme, dataset, rows)[0];
    }
    g_sink += static_cast<double>(sink);
  });
  t.columnar_ns = TimeNs(reps, [&] {
    size_t sink = 0;
    for (const std::vector<uint32_t>& rows : clusters) {
      sink += scheme.ClosureOfRows(dataset, rows)[0];
    }
    g_sink += static_cast<double>(sink);
  });
  return t;
}

// --- Kernel 4: batched record pricing (ShrinkToK's leave-one-out pass).
// Both shapes fill the same out-buffer the selection loop would then read,
// so the comparison is purely nested-vector vs. flat-buffer lookup.
KernelTiming BenchRecordCost(const GeneralizationScheme& scheme,
                             const PrecomputedLoss& loss,
                             const std::vector<std::vector<double>>& costs,
                             const std::vector<GeneralizedRecord>& singles,
                             int reps) {
  const size_t r = scheme.num_attributes();
  const double inv_r = 1.0 / static_cast<double>(r);
  // A leave-one-out pass prices thousands of records; replicate the
  // singleton closures to a batch of that magnitude.
  std::vector<GeneralizedRecord> records;
  records.reserve(16 * singles.size());
  for (int copy = 0; copy < 16; ++copy) {
    records.insert(records.end(), singles.begin(), singles.end());
  }
  std::vector<double> batch;
  std::vector<double> legacy(records.size());
  loss.RecordCostMany(records, &batch);
  for (size_t i = 0; i < records.size(); ++i) {
    double total = 0.0;
    for (size_t j = 0; j < r; ++j) total += costs[j][records[i][j]];
    KANON_CHECK(batch[i] == total * inv_r,
                "record-cost kernel diverged from the legacy loop");
  }

  KernelTiming t;
  t.name = "record_cost_batch";
  t.items = records.size();
  t.legacy_ns = TimeNs(reps, [&] {
    for (size_t i = 0; i < records.size(); ++i) {
      const GeneralizedRecord& rec = records[i];
      double total = 0.0;
      for (size_t j = 0; j < r; ++j) total += costs[j][rec[j]];
      legacy[i] = total * inv_r;
    }
    g_sink += legacy.back();
  });
  t.columnar_ns = TimeNs(reps, [&] {
    loss.RecordCostMany(records, &batch);
    g_sink += batch.back();
  });
  return t;
}

// --- Kernel 5: the per-pair distance arithmetic itself (the tentpole of
// the policy engine, docs/policy_engine.md). Legacy: the pre-policy shape —
// one out-of-line EvalDistance call per pair, re-running the
// DistanceFunction switch every time (distance.cc is a separate TU, so the
// call never inlines — exactly what the merge loops used to pay). Policy:
// DispatchDistancePolicy translates the enum once per sweep and the loop
// runs on the policy's inlined Distance hook. Both sides cover all five
// distance functions over the same deterministic ingredient grid, with
// sizes shaped like the init scan plus the overlapping-argument variants.
KernelTiming BenchDistanceDispatch(const std::vector<double>& single_costs,
                                   int reps) {
  const size_t n = single_costs.size();
  const DistanceParams params;  // epsilon = 0.1, as the paper uses.

  // Bitwise equivalence first, per distance function, on a pair sample.
  for (DistanceFunction f : kAllDistanceFunctions) {
    DispatchDistancePolicy(f, params, [&](const auto& policy) {
      for (uint32_t u = 0; u < n; u += 17) {
        for (uint32_t v = 0; v < n; v += 13) {
          const size_t sa = 1 + (u & 7);
          const size_t sb = 1 + (v & 3);
          const double da = single_costs[u];
          const double db = single_costs[v];
          const double du = da + db + 0.25;
          KANON_CHECK(policy.Distance(sa, sb, sa + sb, da, db, du) ==
                          EvalDistance(f, params, sa, sb, sa + sb, da, db, du),
                      "policy hook diverged from the EvalDistance reference");
        }
      }
      return 0;
    });
  }

  KernelTiming t;
  t.name = "distance_dispatch_vs_policy";
  t.items = 5 * n * n;
  t.legacy_ns = TimeNs(reps, [&] {
    double sink = 0.0;
    for (DistanceFunction f : kAllDistanceFunctions) {
      for (uint32_t u = 0; u < n; ++u) {
        const size_t sa = 1 + (u & 7);
        const double da = single_costs[u];
        for (uint32_t v = 0; v < n; ++v) {
          const size_t sb = 1 + (v & 3);
          const double db = single_costs[v];
          sink += EvalDistance(f, params, sa, sb, sa + sb, da, db,
                               da + db + 0.25);
        }
      }
    }
    g_sink += sink;
  });
  t.columnar_ns = TimeNs(reps, [&] {
    double sink = 0.0;
    for (DistanceFunction f : kAllDistanceFunctions) {
      sink += DispatchDistancePolicy(f, params, [&](const auto& policy) {
        double acc = 0.0;
        for (uint32_t u = 0; u < n; ++u) {
          const size_t sa = 1 + (u & 7);
          const double da = single_costs[u];
          for (uint32_t v = 0; v < n; ++v) {
            const size_t sb = 1 + (v & 3);
            const double db = single_costs[v];
            acc += policy.Distance(sa, sb, sa + sb, da, db, da + db + 0.25);
          }
        }
        return acc;
      });
    }
    g_sink += sink;
  });
  return t;
}

// --- Kernel 6: the agglomerative rescan/repair sweep, one anchor cluster
// against every active cluster. Legacy: one UnionCost per pair over
// ClosureStore-interned closures — the cluster -> closure id -> stored
// record chase the engine paid per pair before the flat slots. Columnar:
// one AnchorCostRow per anchor, then UnionCostFromRow over flat
// ClusterSlots. The clusters are disjoint runs of 1..8 rows, shaped like
// the active list a few hundred merges into a run.
KernelTiming BenchClusterUnionSweep(const Dataset& dataset,
                                    const PrecomputedLoss& loss,
                                    const LossKernels& kernels, int reps) {
  const GeneralizationScheme& scheme = loss.scheme();
  const size_t n = dataset.num_rows();
  ClosureStore store(loss);
  ClusterSlots slots(scheme.num_attributes());
  std::vector<ClosureStore::Id> closures;
  uint64_t state = 0x2545f4914f6cdd1dull;
  for (size_t begin = 0; begin < n;) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const size_t end = std::min(n, begin + 1 + state % 8);
    std::vector<uint32_t> rows;
    for (size_t row = begin; row < end; ++row) {
      rows.push_back(static_cast<uint32_t>(row));
    }
    const ClosureStore::Id id = store.InternClosureOfRows(dataset, rows);
    slots.Write(static_cast<uint32_t>(closures.size()), store.record(id),
                rows.size(), store.cost(id));
    closures.push_back(id);
    begin = end;
  }
  const uint32_t m = static_cast<uint32_t>(closures.size());
  std::vector<double> row(kernels.cost_row_size());

  for (uint32_t u = 0; u < m; u += 7) {
    kernels.AnchorCostRow(slots.sets(u), row.data());
    for (uint32_t v = 0; v < m; ++v) {
      KANON_CHECK(kernels.UnionCostFromRow(row.data(), slots.sets(v)) ==
                      kernels.UnionCost(store.record(closures[u]),
                                        store.record(closures[v])),
                  "cluster union sweep diverged from the per-pair UnionCost");
    }
  }

  KernelTiming t;
  t.name = "cluster_union_sweep";
  t.items = static_cast<size_t>(m) * m;
  t.legacy_ns = TimeNs(reps, [&] {
    double sink = 0.0;
    for (uint32_t u = 0; u < m; ++u) {
      for (uint32_t v = 0; v < m; ++v) {
        sink += kernels.UnionCost(store.record(closures[u]),
                                  store.record(closures[v]));
      }
    }
    g_sink += sink;
  });
  t.columnar_ns = TimeNs(reps, [&] {
    double sink = 0.0;
    for (uint32_t u = 0; u < m; ++u) {
      kernels.AnchorCostRow(slots.sets(u), row.data());
      for (uint32_t v = 0; v < m; ++v) {
        sink += kernels.UnionCostFromRow(row.data(), slots.sets(v));
      }
    }
    g_sink += sink;
  });
  return t;
}

// --- Kernel 7: the agglomerative engine's singleton init under dist4 (the
// kanon_cli default), every singleton's two-best over all others. Legacy:
// one PairCostSweep per row over all n rows, then the ascending two-best
// select — every unordered pair priced twice. Columnar: the triangle of
// internal::SingletonTwoBests on one thread — each pair priced once from
// its smaller row's anchor cost row and offered in both directions.
KernelTiming BenchSingletonInit(const Dataset& dataset,
                                const PrecomputedLoss& loss,
                                const LossKernels& kernels, int reps) {
  const size_t n = dataset.num_rows();
  ClusterSlots slots(dataset.num_attributes());
  for (uint32_t i = 0; i < n; ++i) {
    const GeneralizedRecord closure =
        loss.scheme().Identity(dataset.row_view(i));
    slots.Write(i, closure, 1, loss.RecordCost(closure));
  }
  const RatioPolicy policy;
  std::vector<double> pair(n);
  std::vector<CandidatePair> legacy(n);
  const auto per_row = [&] {
    for (uint32_t i = 0; i < n; ++i) {
      kernels.PairCostSweep(i, pair.data());
      CandidatePair c;
      for (uint32_t y = 0; y < n; ++y) {
        if (y == i) continue;
        OfferToTwoBest(&c, y,
                       policy.Distance(1, 1, 2, slots.cost(i), slots.cost(y),
                                       pair[y]));
      }
      legacy[i] = c;
    }
  };
  std::vector<CandidatePair> triangle;
  const auto triangle_init = [&] {
    KANON_CHECK(internal::SingletonTwoBests(kernels, slots, n, policy, 1,
                                            nullptr, &triangle)
                    .ok(),
                "singleton init failed");
  };

  // Bitwise equivalence first: every singleton's two-best.
  per_row();
  triangle_init();
  for (size_t i = 0; i < n; ++i) {
    const CandidatePair& a = legacy[i];
    const CandidatePair& b = triangle[i];
    KANON_CHECK(a.c1 == b.c1 && a.d1 == b.d1 && a.c2 == b.c2 && a.d2 == b.d2,
                "triangle init diverged from the per-row scan");
  }

  KernelTiming t;
  t.name = "singleton_init";
  t.items = n * n;
  t.legacy_ns = TimeNs(reps, [&] {
    per_row();
    g_sink += legacy.back().d1;
  });
  t.columnar_ns = TimeNs(reps, [&] {
    triangle_init();
    g_sink += triangle.back().d1;
  });
  return t;
}

void WriteJson(const std::string& path, size_t n, size_t r,
               const std::vector<KernelTiming>& timings) {
  std::ofstream out(path);
  KANON_CHECK(out.good(), "cannot open JSON output path");
  out << "{\n";
  out << "  \"workload\": \"ART\",\n";
  out << "  \"n\": " << n << ",\n";
  out << "  \"r\": " << r << ",\n";
  out << "  \"threads\": 1,\n";
  out << "  \"kernels\": [\n";
  for (size_t i = 0; i < timings.size(); ++i) {
    const KernelTiming& t = timings[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "    {\"name\": \"%s\", \"items\": %zu, "
                  "\"legacy_ns_per_item\": %.2f, "
                  "\"columnar_ns_per_item\": %.2f, \"speedup\": %.2f}%s\n",
                  t.name.c_str(), t.items,
                  t.legacy_ns / static_cast<double>(t.items),
                  t.columnar_ns / static_cast<double>(t.items), t.speedup(),
                  i + 1 < timings.size() ? "," : "");
    out << line;
  }
  out << "  ]\n}\n";
}

int Main(int argc, char** argv) {
  size_t n = 1000;
  int reps = 5;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--n=", 0) == 0) {
      n = static_cast<size_t>(std::stoul(arg.substr(4)));
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = std::stoi(arg.substr(7));
    } else if (arg == "--json") {
      json_path = "BENCH_micro.json";
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr,
                   "usage: micro_bench [--n=N] [--reps=R] [--json[=path]]\n");
      return 2;
    }
  }

  const Workload w = bench::MustArtWorkload(n, /*seed=*/20080407);
  const PrecomputedLoss loss(w.scheme, w.dataset, EntropyMeasure());
  const GeneralizationScheme& scheme = loss.scheme();
  const LossKernels kernels(w.dataset, loss);
  const std::vector<std::vector<double>> costs = NestedCosts(scheme, loss);

  std::vector<GeneralizedRecord> singles(n);
  for (uint32_t i = 0; i < n; ++i) {
    singles[i] = scheme.Identity(w.dataset.row_view(i));
  }

  std::vector<KernelTiming> timings;
  timings.push_back(
      BenchPairSweep(w.dataset, scheme, kernels, costs, singles, reps));
  timings.push_back(
      BenchJoinedSweep(w.dataset, scheme, kernels, costs, singles, reps));
  timings.push_back(BenchClosure(w.dataset, scheme, reps));
  timings.push_back(BenchRecordCost(scheme, loss, costs, singles, reps));
  std::vector<double> single_costs(n);
  for (uint32_t i = 0; i < n; ++i) {
    single_costs[i] = loss.RecordCost(singles[i]);
  }
  timings.push_back(BenchDistanceDispatch(single_costs, reps));
  timings.push_back(BenchClusterUnionSweep(w.dataset, loss, kernels, reps));
  timings.push_back(BenchSingletonInit(w.dataset, loss, kernels, reps));

  std::printf("micro_bench: ART n=%zu r=%zu, 1 thread, best of %d reps\n", n,
              scheme.num_attributes(), reps);
  std::printf("%-36s %14s %14s %8s\n", "kernel", "legacy ns/item",
              "columnar ns/it", "speedup");
  for (const KernelTiming& t : timings) {
    std::printf("%-36s %14.2f %14.2f %7.2fx\n", t.name.c_str(),
                t.legacy_ns / static_cast<double>(t.items),
                t.columnar_ns / static_cast<double>(t.items), t.speedup());
  }
  if (!json_path.empty()) {
    WriteJson(json_path, n, scheme.num_attributes(), timings);
    std::printf("wrote %s\n", json_path.c_str());
  }
  // The sink keeps the timed loops observable; print it so the compiler
  // cannot argue otherwise.
  std::fprintf(stderr, "checksum %.3f\n", g_sink);
  return 0;
}

}  // namespace
}  // namespace kanon

int main(int argc, char** argv) { return kanon::Main(argc, argv); }
