// Shared declarations of the end-to-end stack benchmark.
//
// One repetition ("rep") builds a storage::AsaCluster for a workload,
// drives it through VersionHistoryService::append/read until quiescence,
// then runs the correctness gate. main.cpp repeats reps for the measuring
// window and reports medians; probes.cpp times single layers in isolation
// for the traced run.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/workload.hpp"
#include "storage/cluster.hpp"
#include "storage/pid.hpp"

namespace stackbench {

using asa_repro::sim::Time;

/// Process CPU time (all threads; the benchmark is single-threaded).
[[nodiscard]] double cpu_seconds();
/// Monotonic wall-clock time.
[[nodiscard]] double wall_seconds();

/// Reads how fast the host runs the stack's kind of code right now. Other
/// tenants of a shared host slow its caches by tens of percent within
/// minutes, and the stack's CPU time moves with them. Slices of fixed
/// map, allocator and hash-table work over a few MB, run between the
/// stack's run windows, see the same slowdown at the same moments, so CPU
/// figures can be rescaled to a nominal host.
class HostGauge {
 public:
  /// One slice's CPU time on the nominal host. The value is a fixed
  /// convention (slices took 230-330 us on the 4-vCPU Xeon VM the
  /// benchmark was tuned on); rescaled figures read as CPU seconds on a
  /// host that runs a slice in exactly this time.
  static constexpr double kNominalSlice_s = 200e-6;
  /// How much more the run phase's CPU time moves than the slices' as the
  /// host gets busier: the slope of log run CPU against log slice time
  /// across 32 runs of the four workloads at varying host load (0.9 to 2.0
  /// per workload, 1.36 pooled).
  static constexpr double kRunSensitivity = 1.4;
  /// The same for a set-up against the ten slices run right after it
  /// (back-to-back slices keep some of the gauge in L2, so they slow down
  /// more than slices between run windows): 0.6 to 1.1 over 12 runs of
  /// two workloads, 0.7 pooled.
  static constexpr double kSetupSensitivity = 0.7;

  /// Nominal-host CPU seconds per CPU second measured here, from `slices`
  /// slices that took `cpu_s` next to work whose CPU time moves with
  /// `sensitivity` times the slices' log slowdown; 1 without slices.
  [[nodiscard]] static double scale(double slices, double cpu_s,
                                    double sensitivity) {
    return slices > 0 && cpu_s > 0
               ? std::pow(slices * kNominalSlice_s / cpu_s, sensitivity)
               : 1.0;
  }

  HostGauge();
  /// Runs one slice; returns its CPU seconds.
  double slice();

 private:
  std::uint64_t next();

  std::uint64_t x_ = 0x9E3779B97F4A7C15ull;
  std::map<std::uint64_t, std::uint64_t> tree_;
  std::unordered_map<std::uint64_t, std::uint64_t> table_;
};

/// Nearest-rank percentile (0 < q <= 1) of an unsorted sample; 0 if empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// Spans recorded by the benchmark's own code around each public call it
/// makes into a layer. Timed with steady_clock; kept in memory and
/// summarised at exit.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::size_t parent;  // Index + 1 of the enclosing span, 0 for a root.
    double start;
    double end;
  };

  std::size_t open(const char* name);
  void close(std::size_t id);
  /// Total seconds and count of spans named `name`.
  [[nodiscard]] double total(const std::string& name) const;
  [[nodiscard]] std::size_t count(const std::string& name) const;
  /// Per-name count, total and self time (minus child spans), one line each.
  [[nodiscard]] std::string summary() const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->open(name) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::size_t id_;
};

struct WorkloadSpec {
  std::string name;
  std::string why;
  std::size_t nodes = 64;
  std::uint32_t r = 4;
  std::uint32_t writers = 16;
  std::uint32_t guids = 256;
  int operations = 0;
  double zipf = 0.0;
  double read_fraction = 0.0;
  bool open_loop = false;
  /// Loss probability on every replica -> commit endpoint link (the
  /// kCommitted acks). Other links stay lossless: the protocol has no
  /// catch-up for a replica that misses a commit round, so loss between
  /// replicas leaves holes that stop agreed reads short (see README), and
  /// a lost read reply turns a read into a fixed 150 ms timeout.
  double ack_loss = 0.0;
  /// Crash one replica of the hottest GUID halfway through the arrivals,
  /// drop its unsynced journal tail, restart it 500 ms later.
  bool crash_hot_replica = false;
  /// Metrics registry, commit-path spans and flight recorder on, exports
  /// rendered in memory after the run.
  bool observed = false;
  /// One append in flight per GUID (the protocol's supported usage); the
  /// negative control races same-GUID appends instead.
  bool serialize_appends = true;
  /// Negative control only: Byzantine equivocators placed in the first
  /// GUID's peer set.
  std::uint32_t equivocators = 0;
};

/// The benchmark's workloads (BENCHMARK.json lists the same names).
[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
/// A named workload, the tiny smoke variant "<name>@smoke", or the
/// "negative-control" run; nullptr when unknown.
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);

struct RepOptions {
  /// Override the workload's observability setting (the traced run uses it
  /// to run `observed` with obs off as its baseline).
  bool observe = false;
  /// Attach a metrics registry to the Chord ring only, to count lookups and
  /// hops (no stats getter exists for them).
  bool count_lookups = false;
  SpanLog* spans = nullptr;
  /// When set, a gauge slice runs after each run window once another
  /// kSliceEvery_s of run-phase CPU has passed; its time is kept out of
  /// the run's CPU figures.
  HostGauge* gauge = nullptr;
};

constexpr double kSliceEvery_s = 0.002;

/// Counts and simulated-clock results of one rep. Within a seed every field
/// must repeat exactly; main.cpp treats a difference as a determinism bug.
struct Fingerprint {
  std::uint64_t appends = 0;
  std::uint64_t commits = 0;
  std::uint64_t failed_appends = 0;
  std::uint64_t reads = 0;  // In-run plus verification reads.
  std::uint64_t reads_failed = 0;
  std::uint64_t attempts = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t events = 0;
  std::uint64_t resident_instances_end = 0;
  std::uint64_t latency_hash = 0;  // Over every commit and read latency.
  Time sim_end = 0;
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

/// Layer counts read from public stats after the run phase (traced run).
struct LayerCounts {
  std::uint64_t events_executed = 0;
  std::uint64_t max_queue_depth = 0;
  std::uint64_t net_sent = 0;
  std::uint64_t net_delivered = 0;
  std::uint64_t net_dropped = 0;
  std::uint64_t net_to_dead = 0;
  std::uint64_t lookups = 0;
  std::uint64_t lookup_hops = 0;
  std::uint64_t deliveries = 0;  // Protocol messages delivered to FSMs.
  std::uint64_t aborts = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t retries = 0;
  std::uint64_t journal_records = 0;  // Medium appends, snapshots included.
  std::uint64_t journal_bytes = 0;
  std::uint64_t commit_records = 0;
  std::uint64_t snapshots = 0;
  /// (commit records, journaled GUIDs) of every node that recorded any.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> node_journals;
  std::uint64_t replayed_records = 0;
  std::uint64_t entries_recovered = 0;
  std::uint64_t metrics_bytes = 0;
  std::uint64_t spans_bytes = 0;
  std::uint64_t flight_bytes = 0;
  std::uint64_t flight_events = 0;
};

struct RepResult {
  Fingerprint fp;
  LayerCounts layers;
  std::vector<double> commit_latency_ms;
  std::vector<double> read_latency_ms;
  std::vector<std::string> violations;  // Correctness gate findings.
  double run_cpu_s = 0;  // Run phase (plus exports on `observed`).
  /// Rescaled to the nominal host by the gauge slices of each tenth, if
  /// the rep ran a gauge.
  std::array<double, 10> tenth_cpu_us_per_commit{};
  std::uint64_t gauge_slices = 0;  // Run during the run phase.
  double gauge_cpu_s = 0;
};

/// The cluster configuration every rep and probe of `spec` uses.
[[nodiscard]] asa_repro::storage::ClusterConfig cluster_config(
    const WorkloadSpec& spec, std::uint64_t seed, bool observe);
/// Install the workload's ack loss on `network` (the client service sits
/// at AsaCluster::kClientAddrBase, its per-GUID commit endpoints just
/// above it).
void apply_ack_loss(asa_repro::sim::Network& network,
                       const WorkloadSpec& spec);
/// The workload's GUIDs, indexed by WorkloadOp::key.
[[nodiscard]] std::vector<asa_repro::storage::Guid> workload_guids(
    const WorkloadSpec& spec);
/// The seeded operation schedule, grouped by writer.
[[nodiscard]] std::vector<std::vector<asa_repro::sim::WorkloadOp>>
workload_ops(const WorkloadSpec& spec, std::uint64_t seed);

/// Issues a schedule closed-loop (a writer's next operation when the
/// previous one completes) or open-loop (each at its arrival time).
class OpIssuer {
 public:
  using Issue = std::function<void(const asa_repro::sim::WorkloadOp& op,
                                   std::size_t writer, std::size_t index)>;
  OpIssuer(std::vector<std::vector<asa_repro::sim::WorkloadOp>> ops,
           bool open_loop, Issue issue);
  OpIssuer(const OpIssuer&) = delete;
  OpIssuer& operator=(const OpIssuer&) = delete;

  /// Schedule the first operations (all of them in open loop).
  void start(asa_repro::sim::Scheduler& scheduler);
  /// Report operation (writer, index) complete.
  void completed(std::size_t writer, std::size_t index);
  [[nodiscard]] std::uint64_t done() const { return done_; }
  [[nodiscard]] std::uint64_t total() const { return total_; }

 private:
  void issue(std::size_t writer, std::size_t index);

  std::vector<std::vector<asa_repro::sim::WorkloadOp>> ops_;
  bool open_loop_;
  Issue issue_;
  std::uint64_t done_ = 0;
  std::uint64_t total_ = 0;
};

/// CPU seconds to construct one cluster (ring build, hosts, FSM
/// generation for r) — the set-up cost alone.
[[nodiscard]] double time_setup(const WorkloadSpec& spec, std::uint64_t seed);

/// Build the cluster, drive the workload to quiescence, run the gate.
[[nodiscard]] RepResult run_rep(const WorkloadSpec& spec, std::uint64_t seed,
                                const RepOptions& options);

/// Per-layer probe results: isolated-call costs at the run's shape.
struct ProbeResult {
  double ns_per_event = 0;
  double ns_per_msg = 0;
  double ns_per_lookup = 0;
  double ns_per_delivery = 0;
  double ns_per_frame_codec = 0;
  double ns_per_record = 0;
  double peer_us_per_commit = 0;
};

[[nodiscard]] ProbeResult run_probes(const WorkloadSpec& spec,
                                     std::uint64_t seed, const RepResult& rep);

}  // namespace stackbench
