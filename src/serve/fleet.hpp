// SegHdcFleet: the multi-tenant layer over SegHdcServer — many configs
// (per-dataset, per-K, per-dimension) served concurrently to many
// clients from one process, the service shape the ROADMAP's
// million-user north star needs where one server is one camera.
//
//   serve::SegHdcFleet fleet({.pool = &pool, .max_in_flight_total = 8});
//   fleet.add_tenant("nuclei", nuclei_config, {.max_queued = 64});
//   fleet.add_tenant("pathology", pathology_config, {.max_queued = 16});
//   auto f = fleet.submit("nuclei", image);   // == solo-server result
//   fleet.retire_tenant("pathology");         // others keep serving
//
// Architecture (one request flows left to right):
//
//   submit ──> [per-tenant pending queue] ──> fair-share ──> tenant's
//     │          (max_queued, kBlock/        dispatcher      SegHdcServer
//     │           kReject admission)            │            (shared pool)
//     future <──────────────────────────────────┴── promise + quota release
//
// Every tenant is an independent (SegHdcConfig, SegHdcServer) pair; all
// tenant servers fan their per-image work onto ONE shared
// util::ThreadPool, so the fleet's footprint is bounded by the pool, not
// by tenant count. Admission is per tenant — a pending-queue cap
// (max_queued, block or reject) plus an in-flight cap (max_in_flight) —
// and a single dispatcher thread forwards pending requests to tenant
// servers in weighted round-robin order, so under contention (the
// fleet-wide max_in_flight_total, or saturated tenant caps) every tenant
// with work gets its fair share of dispatch slots instead of
// first-flooder-wins.
//
// Guarantees:
//   - Determinism: every delivered result is bit-identical to a solo
//     `SegHdcServer(config)` (and therefore to `SegHdc(config).segment`)
//     for that tenant's config — at every tenant mix, quota setting,
//     interleaving, pool size, and retire schedule. Multi-tenancy
//     changes who waits, never what anyone gets.
//   - Isolation: one tenant's flood cannot starve another (fair-share
//     dispatch), and one tenant's retire never stalls or perturbs the
//     others' in-flight work.
//   - Hot add/retire: add_tenant and retire_tenant are safe while the
//     fleet is under load. Retire kDrain completes everything the tenant
//     accepted; kCancel fails its still-pending requests with
//     CancelledError. The destructor drains every tenant.
#ifndef SEGHDC_SERVE_FLEET_HPP
#define SEGHDC_SERVE_FLEET_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/config.hpp"
#include "src/imaging/image.hpp"
#include "src/obs/metrics.hpp"
#include "src/serve/server.hpp"
#include "src/serve/stats.hpp"
#include "src/util/admission_gate.hpp"
#include "src/util/bounded_queue.hpp"
#include "src/util/parallel.hpp"
#include "src/util/stopwatch.hpp"

namespace seghdc::serve {

/// Thrown by submit/retire/tenant_stats for a name no live tenant has.
class UnknownTenantError : public std::invalid_argument {
 public:
  explicit UnknownTenantError(const std::string& name)
      : std::invalid_argument("SegHdcFleet has no tenant named '" + name +
                              "'") {}
};

/// Thrown by add_tenant when the name is already taken (including by a
/// tenant that is still draining out of a retire).
class DuplicateTenantError : public std::invalid_argument {
 public:
  explicit DuplicateTenantError(const std::string& name)
      : std::invalid_argument("SegHdcFleet already has a tenant named '" +
                              name + "'") {}
};

/// Per-tenant knobs: the admission quota, the fair-share weight, and the
/// tenant server's worker count. None of them affect result content, only
/// who waits when.
struct TenantOptions {
  /// Pending-queue capacity at the fleet gate; 0 = unbounded. A full
  /// queue blocks or rejects the submitter per `admission`.
  std::size_t max_queued = 0;
  /// Cap on requests dispatched to this tenant's server and not yet
  /// completed; 0 = unbounded. Enforced by the dispatcher (requests
  /// above the cap wait in the pending queue), never by blocking the
  /// submitter.
  std::size_t max_in_flight = 0;
  /// What a full pending queue does to the next submitter.
  BackpressurePolicy admission = BackpressurePolicy::kBlock;
  /// Fair-share weight: how many requests this tenant may dispatch per
  /// round-robin turn (>= 1). Double weight, double share under
  /// contention.
  std::size_t weight = 1;
  /// Whole-image workers of the tenant's server (see ServerOptions).
  std::size_t workers = 1;
  /// Sliding-window size of the tenant server's latency recorder.
  std::size_t latency_window = 65536;
};

/// Fleet-wide knobs.
struct FleetOptions {
  /// Pool every tenant's per-image work fans out on. nullptr = the
  /// process-wide shared pool. One pool for the whole fleet is the
  /// point: tenant count scales admission state, not thread count.
  util::ThreadPool* pool = nullptr;
  /// Fleet-wide cap on dispatched-not-completed requests across all
  /// tenants; 0 = unbounded. This is the contention knob fair-share
  /// arbitrates: when the fleet is at the cap, freed slots go to
  /// tenants in round-robin order, not to whoever floods fastest.
  std::size_t max_in_flight_total = 0;
  /// Sliding-window size of the fleet-wide latency recorder.
  std::size_t latency_window = 65536;
};

/// One tenant's snapshot: fleet-gate counters plus the tenant server's
/// own ServerStats. `server.latency` measures fleet-admission-to-done
/// (the clock starts when the fleet accepts the request, so pending-
/// queue wait is included — what the tenant's client experiences).
struct TenantStats {
  std::string name;
  bool retiring = false;           ///< retire in progress (still draining)
  std::uint64_t accepted = 0;      ///< accepted into the pending queue
  std::uint64_t rejected = 0;      ///< refused by the kReject admission
  std::uint64_t dispatched = 0;    ///< forwarded to the tenant server
  std::uint64_t cancelled_at_gate = 0;  ///< failed by retire(kCancel)
                                        ///< before ever dispatching
  std::size_t pending = 0;         ///< waiting at the fleet gate now
  std::size_t in_flight = 0;       ///< dispatched, not yet completed
  ServerStats server;              ///< the tenant server's counters/latency
};

/// Fleet snapshot: per-tenant stats plus the rollup across live tenants
/// (a retired tenant's counters leave the rollup with it). The fleet
/// `latency` recorder spans every tenant's completions, admission-to-
/// done; per-tenant distributions are in tenants[i].server.latency.
struct FleetStats {
  std::vector<TenantStats> tenants;  ///< registration order
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;  ///< at the gate + in tenant servers
  std::size_t pending = 0;
  std::size_t in_flight = 0;
  double uptime_seconds = 0.0;
  /// completed / uptime across all tenants — sustained, not windowed.
  double throughput_images_per_sec = 0.0;
  obs::LatencyPercentiles latency;
};

class SegHdcFleet {
 public:
  /// Starts the dispatcher; the fleet accepts add_tenant immediately.
  explicit SegHdcFleet(const FleetOptions& options = {});

  /// Retires every tenant (kDrain) and stops the dispatcher.
  ~SegHdcFleet();

  SegHdcFleet(const SegHdcFleet&) = delete;
  SegHdcFleet& operator=(const SegHdcFleet&) = delete;

  const FleetOptions& options() const { return options_; }

  /// Registers a tenant and starts its server (its workers spin up
  /// here). Validates the config and options (std::invalid_argument,
  /// DuplicateTenantError). Safe under load; existing tenants are not
  /// disturbed.
  void add_tenant(const std::string& name, const core::SegHdcConfig& config,
                  const TenantOptions& options = {});

  /// Retires a tenant: new submits for the name fail immediately;
  /// kDrain dispatches and completes everything already accepted,
  /// kCancel fails still-pending requests with CancelledError and lets
  /// dispatched work finish per the server's cancel semantics. Blocks
  /// until the tenant's server has stopped. Other tenants keep serving
  /// throughout — their results are untouched (bit-identical to a run
  /// without the retire).
  void retire_tenant(const std::string& name,
                     ShutdownMode mode = ShutdownMode::kDrain);

  bool has_tenant(const std::string& name) const;

  /// Live tenant names, registration order (retiring ones included
  /// until their drain finishes).
  std::vector<std::string> tenant_names() const;

  /// Enqueues one image for `tenant`. The future delivers exactly what
  /// a solo SegHdcServer with the tenant's config would deliver, or the
  /// failure (worker exception, CancelledError under retire(kCancel)).
  /// Blocks or throws RejectedError on a full pending queue per the
  /// tenant's admission policy; UnknownTenantError for names the fleet
  /// does not serve; ShutdownError once the tenant's retire has begun.
  std::future<core::SegmentationResult> submit(const std::string& tenant,
                                               img::ImageU8 image);

  /// Retires every tenant with `mode`, then stops the dispatcher.
  /// Idempotent and thread-safe.
  void shutdown(ShutdownMode mode = ShutdownMode::kDrain);

  /// Counter + latency snapshot across the fleet. Safe from any thread
  /// at any time.
  FleetStats stats() const;

  /// One tenant's snapshot (UnknownTenantError when absent).
  TenantStats tenant_stats(const std::string& name) const;

  /// The fleet-wide metric registry (the admission-to-done latency
  /// histogram spanning every tenant). Per-tenant gate counters live in
  /// each tenant's own registry (rendered with a `tenant="..."` label)
  /// and leave the fleet with the tenant; per-server metrics are at
  /// tenant_server.metrics().
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  /// Test seam (tests/test_fleet.cpp): takes and returns fleet-wide
  /// in-flight slots directly, so a test can queue work behind a held
  /// slot and observe the dispatch order without depending on timing.
  friend struct FleetSlotHold;

  /// A request admitted at the fleet gate, waiting for dispatch. The
  /// stopwatch starts at admission, so latency covers gate wait.
  struct PendingRequest {
    img::ImageU8 image;
    std::promise<core::SegmentationResult> promise;
    util::Stopwatch accepted;
  };

  struct Tenant {
    std::string name;
    TenantOptions options;
    util::BoundedQueue<PendingRequest> pending;
    util::AdmissionGate in_flight;
    std::unique_ptr<SegHdcServer> server;
    /// Fleet-gate counters live in a registry OWNED BY THE TENANT, not
    /// the fleet's: a retired tenant takes its counters with it, so a
    /// later add_tenant under the same name starts from zero instead of
    /// resurrecting stale values through the registry's get-or-create.
    obs::MetricsRegistry gate_metrics;
    obs::Counter& accepted;
    obs::Counter& rejected;
    obs::Counter& dispatched;
    obs::Counter& cancelled_at_gate;
    std::atomic<bool> retiring{false};

    Tenant(std::string tenant_name, const TenantOptions& tenant_options);
    /// `tenant="<name>"` with backslash and quote escaped, so arbitrary
    /// tenant names render as valid Prometheus label values.
    static std::string label_for(const std::string& name);
  };

  std::shared_ptr<Tenant> find_tenant(const std::string& name) const;
  TenantStats tenant_stats_unlocked(const Tenant& tenant) const;

  /// Dispatches one pending request in fair-share rotation order.
  /// Returns false when nothing is dispatchable (all quotas saturated
  /// or nothing pending). Caller holds mutex_.
  bool dispatch_one_locked();
  void dispatch_loop();
  /// Slot freed / request completed: fence on mutex_ then wake the
  /// dispatcher and any retire waiter.
  void notify_progress();

  FleetOptions options_;
  util::Stopwatch uptime_;
  util::AdmissionGate total_in_flight_;
  /// Fleet-wide registry; `latency_` is its admission-to-done histogram
  /// (every tenant's completions, gate wait included).
  obs::MetricsRegistry metrics_;
  obs::Histogram& latency_;

  mutable std::mutex mutex_;  ///< guards tenants_, rotation, stopping_
  std::condition_variable progress_;
  std::vector<std::shared_ptr<Tenant>> tenants_;  ///< registration order
  std::size_t rotation_cursor_ = 0;
  bool stopping_ = false;

  std::mutex shutdown_mutex_;  ///< one thread performs the final join
  bool dispatcher_joined_ = false;
  std::thread dispatcher_;
};

}  // namespace seghdc::serve

#endif  // SEGHDC_SERVE_FLEET_HPP
