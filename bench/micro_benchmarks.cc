// Google-benchmark micro benchmarks for the kernels under the end-to-end
// numbers: FM sketch operations, partial-aggregate combines, event-queue
// throughput, broadcast fan-out, RNG, Zipf, churn schedules and topology
// generation, plus one dense-graph query as a regression guard. Whole
// queries are measured by perfbench's workloads (perfbench/README.md).
//
// The JSON context records the build type and the active sketch kernel;
// bench/run_benchmarks.sh adds the git commit.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "common/zipf.h"
#include "core/engine.h"
#include "protocols/combiner.h"
#include "sim/churn.h"
#include "sim/event_queue.h"
#include "sketch/fm_sketch.h"
#include "topology/generators.h"

namespace validity {
namespace {

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.Next());
}
BENCHMARK(BM_RngNext);

void BM_ZipfSample(benchmark::State& state) {
  auto zipf = ZipfGenerator::Make(10, 500, 1.0);
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(zipf->Sample(&rng));
}
BENCHMARK(BM_ZipfSample);

void BM_FmInsertDistinct(benchmark::State& state) {
  sketch::FmSketch s(sketch::FmParams{16});
  Rng rng(1);
  for (auto _ : state) s.InsertDistinctElement(&rng);
}
BENCHMARK(BM_FmInsertDistinct);

void BM_FmForMagnitude(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch::FmSketch::ForMagnitude(
        sketch::FmParams{16}, static_cast<uint64_t>(state.range(0)), &rng));
  }
}
BENCHMARK(BM_FmForMagnitude)->Arg(10)->Arg(500)->Arg(100000);

void BM_FmMergeOr(benchmark::State& state) {
  Rng rng(1);
  sketch::FmSketch a =
      sketch::FmSketch::ForMagnitude(sketch::FmParams{16}, 1000, &rng);
  sketch::FmSketch b =
      sketch::FmSketch::ForMagnitude(sketch::FmParams{16}, 2000, &rng);
  for (auto _ : state) benchmark::DoNotOptimize(a.MergeOr(b));
  state.SetLabel(sketch::ActiveSketchKernel());
}
BENCHMARK(BM_FmMergeOr);

void BM_FmMergeOrScalar(benchmark::State& state) {
  // The portable word loop, pinned: the gap to BM_FmMergeOr is the SIMD
  // kernel's win on this machine (zero on hardware without AVX2).
  Rng rng(1);
  sketch::FmSketch a =
      sketch::FmSketch::ForMagnitude(sketch::FmParams{16}, 1000, &rng);
  sketch::FmSketch b =
      sketch::FmSketch::ForMagnitude(sketch::FmParams{16}, 2000, &rng);
  sketch::ForceScalarSketchKernels(true);
  for (auto _ : state) benchmark::DoNotOptimize(a.MergeOr(b));
  sketch::ForceScalarSketchKernels(false);
}
BENCHMARK(BM_FmMergeOrScalar);

void BM_CombinerCombineFm(benchmark::State& state) {
  Rng rng(1);
  protocols::PartialAggregate a = protocols::PartialAggregate::Initial(
      protocols::CombinerKind::kFmSum, 0, 250, sketch::FmParams{16}, &rng);
  protocols::PartialAggregate b = protocols::PartialAggregate::Initial(
      protocols::CombinerKind::kFmSum, 1, 400, sketch::FmParams{16}, &rng);
  for (auto _ : state) {
    protocols::PartialAggregate c = a;
    benchmark::DoNotOptimize(c.CombineFrom(b));
  }
}
BENCHMARK(BM_CombinerCombineFm);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    int64_t sink = 0;
    for (int i = 0; i < state.range(0); ++i) {
      q.ScheduleAt(static_cast<double>(i % 97), [&sink] { ++sink; });
    }
    q.RunAll();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

void BM_EventQueueTypedScheduleRun(benchmark::State& state) {
  // The allocation-free protocol path: tagged POD events dispatched through
  // the installed handler, no closures anywhere.
  struct Counter {
    int64_t fired = 0;
    static void Handle(void* ctx, const sim::Event& event) {
      static_cast<Counter*>(ctx)->fired += static_cast<int64_t>(event.payload);
    }
  };
  for (auto _ : state) {
    sim::EventQueue q;
    Counter counter;
    q.SetTypedHandler(&Counter::Handle, &counter);
    for (int i = 0; i < state.range(0); ++i) {
      q.ScheduleTyped(static_cast<double>(i % 97), sim::EventTag::kTimer, 0,
                      kInvalidHost, 0, 1);
    }
    q.RunAll();
    benchmark::DoNotOptimize(counter.fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueTypedScheduleRun)->Arg(1000)->Arg(100000);

void BM_SimulatorBroadcastFanout(benchmark::State& state) {
  // Hub broadcast on a star: one message slab slot shared by N-1 typed
  // deliveries (includes simulator construction, so this tracks the CSR
  // build as well).
  auto graph = topology::MakeStar(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    sim::Simulator simulator(*graph, sim::SimOptions{});
    sim::Message msg;
    msg.kind = 1;
    simulator.SendToNeighbors(0, msg);
    simulator.Run();
    benchmark::DoNotOptimize(simulator.metrics().messages_delivered());
  }
  state.SetItemsProcessed(state.iterations() * (state.range(0) - 1));
}
BENCHMARK(BM_SimulatorBroadcastFanout)->Arg(1000)->Arg(100000);

void BM_MakeRandomTopology(benchmark::State& state) {
  for (auto _ : state) {
    auto g = topology::MakeRandom(static_cast<uint32_t>(state.range(0)), 5.0,
                                  42);
    benchmark::DoNotOptimize(g->num_edges());
  }
}
BENCHMARK(BM_MakeRandomTopology)->Arg(1000)->Arg(10000);

void BM_CombinerCombineCompareFm(benchmark::State& state) {
  // The fused WILDFIRE receive path: combine + same-as-sender in one pass
  // (BM_CombinerCombineFm is the copy + two-pass baseline).
  Rng rng(1);
  protocols::PartialAggregate a = protocols::PartialAggregate::Initial(
      protocols::CombinerKind::kFmSum, 0, 250, sketch::FmParams{16}, &rng);
  protocols::PartialAggregate b = protocols::PartialAggregate::Initial(
      protocols::CombinerKind::kFmSum, 1, 400, sketch::FmParams{16}, &rng);
  for (auto _ : state) {
    auto outcome = a.CombineCompare(b);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_CombinerCombineCompareFm);

void BM_WildfireDenseCountQuery(benchmark::State& state) {
  // Dense-graph regression guard for the O(1) reverse neighbor-slot lookup:
  // every convergecast receive used to pay an O(degree) scan, quadratic per
  // tick at average degree 60.
  auto graph =
      topology::MakeRandom(static_cast<uint32_t>(state.range(0)), 60.0, 42);
  core::QueryEngine engine(&*graph, core::MakeZipfValues(graph->num_hosts(),
                                                         43));
  core::QuerySpec spec;
  spec.aggregate = AggregateKind::kCount;
  spec.fm_vectors = 16;
  for (auto _ : state) {
    auto result = engine.Run(spec, core::RunConfig{}, 0);
    benchmark::DoNotOptimize(result->value);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WildfireDenseCountQuery)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_ExponentialChurnMaterialized(benchmark::State& state) {
  // Baseline: build + sort the event vector, then schedule (the pre-PR-2
  // MakeExponentialLifetimeChurn + ScheduleChurn path).
  auto graph = topology::MakeRandom(static_cast<uint32_t>(state.range(0)),
                                    5.0, 42);
  for (auto _ : state) {
    sim::Simulator simulator(*graph, sim::SimOptions{});
    Rng rng(7);
    auto events = sim::MakeExponentialLifetimeChurn(
        graph->num_hosts(), 0, /*mean_lifetime=*/10.0, /*horizon=*/30.0,
        &rng);
    sim::ScheduleChurn(&simulator, events);
    benchmark::DoNotOptimize(events.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExponentialChurnMaterialized)->Arg(100000);

void BM_ExponentialChurnDirect(benchmark::State& state) {
  // Same lifetimes fed straight to the calendar heap: no vector, no sort.
  auto graph = topology::MakeRandom(static_cast<uint32_t>(state.range(0)),
                                    5.0, 42);
  for (auto _ : state) {
    sim::Simulator simulator(*graph, sim::SimOptions{});
    Rng rng(7);
    uint32_t scheduled = sim::ScheduleExponentialLifetimeChurn(
        &simulator, 0, /*mean_lifetime=*/10.0, /*horizon=*/30.0, &rng);
    benchmark::DoNotOptimize(scheduled);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExponentialChurnDirect)->Arg(100000);

}  // namespace
}  // namespace validity

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("validity_build_type", VALIDITY_BUILD_TYPE);
  benchmark::AddCustomContext("sketch_kernel",
                              validity::sketch::ActiveSketchKernel());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
