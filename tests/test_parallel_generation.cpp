// The parallel generation engine's determinism contract (parallel.hpp):
// every artefact produced with jobs=N must be bit-identical to the jobs=1
// legacy serial path — machines, rendered Fig 14 text, generated Fig 16
// code — plus the thread pool's own guarantees and the on-disk machine
// cache's hit/invalidation behaviour (paper section 4.2's caching policy).
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "commit/commit_model.hpp"
#include "core/abstract_model.hpp"
#include "core/analysis.hpp"
#include "core/equivalence.hpp"
#include "core/machine_cache.hpp"
#include "core/parallel.hpp"
#include "core/render/code_renderer.hpp"
#include "core/render/text_renderer.hpp"
#include "models/termination_model.hpp"

namespace asa_repro {
namespace {

/// Field-by-field equality, not behavioural equivalence: the determinism
/// contract promises byte-identical artefacts, so names, ordering and
/// annotation text must all match.
void expect_identical(const fsm::StateMachine& expected,
                      const fsm::StateMachine& actual,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(expected.messages(), actual.messages());
  ASSERT_EQ(expected.start(), actual.start());
  ASSERT_EQ(expected.finish(), actual.finish());
  ASSERT_EQ(expected.state_count(), actual.state_count());
  for (fsm::StateId s = 0; s < expected.state_count(); ++s) {
    const fsm::State& e = expected.state(s);
    const fsm::State& a = actual.state(s);
    ASSERT_EQ(e.name, a.name) << "state " << s;
    ASSERT_EQ(e.is_final, a.is_final) << "state " << s;
    ASSERT_EQ(e.annotations, a.annotations) << "state " << s;
    ASSERT_EQ(e.transitions.size(), a.transitions.size()) << "state " << s;
    for (std::size_t t = 0; t < e.transitions.size(); ++t) {
      const fsm::Transition& et = e.transitions[t];
      const fsm::Transition& at = a.transitions[t];
      ASSERT_EQ(et.message, at.message) << e.name << " transition " << t;
      ASSERT_EQ(et.actions, at.actions) << e.name << " transition " << t;
      ASSERT_EQ(et.target, at.target) << e.name << " transition " << t;
      ASSERT_EQ(et.annotations, at.annotations)
          << e.name << " transition " << t;
    }
  }
}

fsm::GenerationOptions with_jobs(unsigned jobs) {
  fsm::GenerationOptions options;
  options.jobs = jobs;
  return options;
}

std::filesystem::path fresh_cache_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(ParallelGeneration, BitIdenticalAcrossJobCounts) {
  for (const std::uint32_t r : {4u, 7u, 10u}) {
    const commit::CommitModel model(r);
    fsm::GenerationReport serial_report;
    const fsm::StateMachine serial =
        model.generate_state_machine(with_jobs(1), &serial_report);
    for (const unsigned jobs : {2u, 8u}) {
      fsm::GenerationReport report;
      const fsm::StateMachine parallel =
          model.generate_state_machine(with_jobs(jobs), &report);
      expect_identical(serial, parallel,
                       "r=" + std::to_string(r) +
                           " jobs=" + std::to_string(jobs));
      EXPECT_EQ(serial_report.initial_states, report.initial_states);
      EXPECT_EQ(serial_report.transitions, report.transitions);
      EXPECT_EQ(serial_report.reachable_states, report.reachable_states);
      EXPECT_EQ(serial_report.final_states, report.final_states);
    }
  }
}

TEST(ParallelGeneration, RenderedArtefactsIdentical) {
  for (const std::uint32_t r : {4u, 7u}) {
    const commit::CommitModel model(r);
    const fsm::StateMachine serial =
        model.generate_state_machine(with_jobs(1));
    const fsm::StateMachine parallel =
        model.generate_state_machine(with_jobs(8));

    // Fig 14: the textual artefact, byte for byte.
    EXPECT_EQ(fsm::TextRenderer().render(serial),
              fsm::TextRenderer().render(parallel))
        << "r=" << r;

    // Fig 16: the generated source, byte for byte.
    fsm::CodeGenOptions cg;
    cg.class_name = "CommitFsmParallelTest";
    cg.namespace_name = "asa_repro::generated";
    cg.base_class = "asa_repro::commit::CommitActions";
    cg.includes = {"commit/actions.hpp"};
    EXPECT_EQ(fsm::CodeRenderer(cg).render(serial),
              fsm::CodeRenderer(cg).render(parallel))
        << "r=" << r;
  }
}

TEST(ParallelGeneration, IntermediateStepVariantsIdentical) {
  // The intermediate Figs 7/11/12 data structures (prune/merge/annotate
  // disabled) exercise every compaction path; they must be deterministic
  // too.
  const commit::CommitModel model(7);
  for (const bool prune : {false, true}) {
    for (const bool merge : {false, true}) {
      fsm::GenerationOptions serial = with_jobs(1);
      serial.prune_unreachable = prune;
      serial.merge_equivalent = merge;
      serial.annotate = !merge;
      fsm::GenerationOptions parallel = serial;
      parallel.jobs = 8;
      expect_identical(model.generate_state_machine(serial),
                       model.generate_state_machine(parallel),
                       "prune=" + std::to_string(prune) +
                           " merge=" + std::to_string(merge));
    }
  }
}

TEST(ParallelGeneration, TerminationModelIdentical) {
  const models::TerminationModel model(6);
  expect_identical(model.generate_state_machine(with_jobs(1)),
                   model.generate_state_machine(with_jobs(8)),
                   "termination n=6");
}

TEST(ParallelAnalysis, ReportIdenticalAcrossJobCounts) {
  const fsm::StateMachine machine =
      commit::CommitModel(7).generate_state_machine();
  const fsm::MachineAnalysis serial = fsm::analyze(machine, 1);
  const fsm::MachineAnalysis parallel = fsm::analyze(machine, 8);
  EXPECT_EQ(serial.to_string(), parallel.to_string());
  EXPECT_EQ(serial.dead_states, parallel.dead_states);
}

TEST(ParallelEquivalence, SameVerdictAndWitnessAcrossJobCounts) {
  const fsm::StateMachine machine =
      commit::CommitModel(4).generate_state_machine();
  EXPECT_FALSE(fsm::find_divergence(machine, machine, 1).has_value());
  EXPECT_FALSE(fsm::find_divergence(machine, machine, 8).has_value());

  // Mutate one transition's actions; the shortest witness (BFS order) must
  // come out identical whatever the job count.
  fsm::StateMachine mutated = machine;
  for (fsm::State& s : mutated.states()) {
    for (fsm::Transition& t : s.transitions) {
      if (!t.actions.empty()) {
        t.actions.push_back("spurious");
        goto mutated_one;
      }
    }
  }
mutated_one:
  const auto serial = fsm::find_divergence(machine, mutated, 1);
  const auto parallel = fsm::find_divergence(machine, mutated, 8);
  ASSERT_TRUE(serial.has_value());
  ASSERT_TRUE(parallel.has_value());
  EXPECT_EQ(serial->trace, parallel->trace);
  EXPECT_EQ(serial->reason, parallel->reason);
}

TEST(ThreadPoolTest, ResolvesJobCounts) {
  EXPECT_GE(fsm::hardware_jobs(), 1u);
  EXPECT_EQ(fsm::resolve_jobs(0), fsm::hardware_jobs());
  EXPECT_EQ(fsm::resolve_jobs(5), 5u);
}

TEST(ThreadPoolTest, CoversRangeExactlyOnce) {
  for (const unsigned jobs : {1u, 2u, 8u}) {
    const fsm::ThreadPool pool(jobs);
    constexpr std::uint64_t kCount = 10'000;
    std::vector<std::atomic<int>> hits(kCount);
    pool.for_range(kCount, [&](std::uint64_t begin, std::uint64_t end) {
      for (std::uint64_t i = begin; i < end; ++i) ++hits[i];
    });
    for (std::uint64_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " jobs " << jobs;
    }
    pool.for_range(0, [](std::uint64_t, std::uint64_t) { FAIL(); });
  }
}

TEST(ThreadPoolTest, RethrowsChunkExceptions) {
  const fsm::ThreadPool pool(4);
  EXPECT_THROW(
      pool.for_range(1000,
                     [](std::uint64_t begin, std::uint64_t) {
                       if (begin >= 500) throw std::runtime_error("boom");
                     }),
      std::runtime_error);
  // The pool must stay usable after a failed task.
  std::atomic<std::uint64_t> sum{0};
  pool.for_range(100, [&](std::uint64_t begin, std::uint64_t end) {
    for (std::uint64_t i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(MachineCacheTest, MemoryThenDiskHits) {
  const std::filesystem::path dir = fresh_cache_dir("asa_cache_hits");
  int generations = 0;
  const auto generate = [&] {
    ++generations;
    return commit::CommitModel(4).generate_state_machine();
  };

  fsm::MachineCache first(dir);
  const fsm::StateMachine& generated =
      first.machine_for("commit", 4, generate);
  EXPECT_EQ(generations, 1);
  EXPECT_EQ(first.stats().misses, 1u);
  (void)first.machine_for("commit", 4, generate);
  EXPECT_EQ(generations, 1);
  EXPECT_EQ(first.stats().memory_hits, 1u);
  EXPECT_TRUE(first.contains("commit", 4));
  EXPECT_FALSE(first.contains("commit", 7));
  EXPECT_FALSE(first.contains("termination", 4));

  // A second process (modelled by a second cache over the same directory)
  // reloads the persisted artefact without regenerating.
  fsm::MachineCache second(dir);
  const fsm::StateMachine& reloaded =
      second.machine_for("commit", 4, generate);
  EXPECT_EQ(generations, 1);
  EXPECT_EQ(second.stats().disk_hits, 1u);
  EXPECT_EQ(second.stats().misses, 0u);
  expect_identical(generated, reloaded, "disk round trip");
}

TEST(MachineCacheTest, CorruptEntryRegeneratesAndHeals) {
  const std::filesystem::path dir = fresh_cache_dir("asa_cache_corrupt");
  int generations = 0;
  const auto generate = [&] {
    ++generations;
    return commit::CommitModel(4).generate_state_machine();
  };

  {
    fsm::MachineCache cache(dir);
    (void)cache.machine_for("commit", 4, generate);
  }
  EXPECT_EQ(generations, 1);

  const std::filesystem::path file =
      dir / fsm::MachineCache::file_name("commit", 4);
  ASSERT_TRUE(std::filesystem::exists(file));
  std::ofstream(file) << "<statemachine this is not";

  {
    fsm::MachineCache cache(dir);
    (void)cache.machine_for("commit", 4, generate);
    EXPECT_EQ(generations, 2);  // Corrupt entry is a miss...
    EXPECT_EQ(cache.stats().disk_hits, 0u);
  }
  {
    fsm::MachineCache cache(dir);  // ...and was overwritten with a good one.
    (void)cache.machine_for("commit", 4, generate);
    EXPECT_EQ(generations, 2);
    EXPECT_EQ(cache.stats().disk_hits, 1u);
  }
}

TEST(MachineCacheTest, CodeVersionInvalidatesStaleEntries) {
  const std::filesystem::path dir = fresh_cache_dir("asa_cache_version");
  std::filesystem::create_directories(dir);

  // A leftover artefact from a hypothetical previous code version: valid
  // name shape, wrong version suffix. The current version must ignore it.
  const std::string current = fsm::MachineCache::file_name("commit", 4);
  EXPECT_NE(current.find("_v" + std::to_string(fsm::kGenerationCodeVersion)),
            std::string::npos);
  const std::string stale = "commit_p4_v" +
                            std::to_string(fsm::kGenerationCodeVersion + 41) +
                            ".fsm.xml";
  std::ofstream(dir / stale) << "stale";

  int generations = 0;
  fsm::MachineCache cache(dir);
  (void)cache.machine_for("commit", 4, [&] {
    ++generations;
    return commit::CommitModel(4).generate_state_machine();
  });
  EXPECT_EQ(generations, 1);
  EXPECT_EQ(cache.stats().disk_hits, 0u);
  EXPECT_TRUE(std::filesystem::exists(dir / current));
}

}  // namespace
}  // namespace asa_repro
