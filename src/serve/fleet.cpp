#include "src/serve/fleet.hpp"

#include <algorithm>
#include <exception>
#include <utility>

namespace seghdc::serve {

namespace {

FleetOptions validate_options(FleetOptions options) {
  if (options.latency_window == 0) {
    throw std::invalid_argument("FleetOptions.latency_window must be >= 1");
  }
  return options;
}

}  // namespace

std::string SegHdcFleet::Tenant::label_for(const std::string& name) {
  std::string value;
  value.reserve(name.size());
  for (const char c : name) {
    if (c == '\\' || c == '"') {
      value.push_back('\\');
    }
    value.push_back(c);
  }
  return "tenant=\"" + value + "\"";
}

SegHdcFleet::Tenant::Tenant(std::string tenant_name,
                            const TenantOptions& tenant_options)
    : name(std::move(tenant_name)),
      options(tenant_options),
      pending(tenant_options.max_queued),
      in_flight(tenant_options.max_in_flight),
      accepted(gate_metrics.counter(
          "seghdc_fleet_accepted_total",
          "Requests accepted into the tenant's pending queue",
          label_for(name))),
      rejected(gate_metrics.counter(
          "seghdc_fleet_rejected_total",
          "Requests refused by the tenant's kReject admission",
          label_for(name))),
      dispatched(gate_metrics.counter(
          "seghdc_fleet_dispatched_total",
          "Requests forwarded to the tenant's server", label_for(name))),
      cancelled_at_gate(gate_metrics.counter(
          "seghdc_fleet_cancelled_at_gate_total",
          "Pending requests failed by retire(kCancel) before dispatch",
          label_for(name))) {}

SegHdcFleet::SegHdcFleet(const FleetOptions& options)
    : options_(validate_options(options)),
      total_in_flight_(options_.max_in_flight_total),
      latency_(metrics_.histogram(
          "seghdc_fleet_latency_seconds",
          "Admission-to-done latency across all tenants", "",
          options_.latency_window)) {
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

SegHdcFleet::~SegHdcFleet() { shutdown(ShutdownMode::kDrain); }

void SegHdcFleet::add_tenant(const std::string& name,
                             const core::SegHdcConfig& config,
                             const TenantOptions& options) {
  if (name.empty()) {
    throw std::invalid_argument("SegHdcFleet tenant name must be non-empty");
  }
  if (options.weight == 0) {
    throw std::invalid_argument("TenantOptions.weight must be >= 1");
  }
  ServerOptions server_options;
  // The fleet's pending queue + gates ARE the admission policy; the
  // tenant server's own queue stays unbounded so the dispatcher (which
  // holds the fleet lock while forwarding) can never block on it.
  server_options.queue_capacity = 0;
  server_options.backpressure = BackpressurePolicy::kBlock;
  server_options.workers = options.workers;
  server_options.pool = options_.pool;
  server_options.latency_window = options.latency_window;

  const std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) {
    throw ShutdownError("SegHdcFleet is shut down");
  }
  for (const auto& tenant : tenants_) {
    if (tenant->name == name) {
      throw DuplicateTenantError(name);
    }
  }
  auto tenant = std::make_shared<Tenant>(name, options);
  // Construct the server last: a config the session rejects
  // (std::invalid_argument) must leave the fleet without the tenant.
  tenant->server = std::make_unique<SegHdcServer>(config, server_options);
  tenants_.push_back(std::move(tenant));
}

std::shared_ptr<SegHdcFleet::Tenant> SegHdcFleet::find_tenant(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& tenant : tenants_) {
    if (tenant->name == name) {
      return tenant;
    }
  }
  throw UnknownTenantError(name);
}

bool SegHdcFleet::has_tenant(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& tenant : tenants_) {
    if (tenant->name == name) {
      return true;
    }
  }
  return false;
}

std::vector<std::string> SegHdcFleet::tenant_names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& tenant : tenants_) {
    names.push_back(tenant->name);
  }
  return names;
}

std::future<core::SegmentationResult> SegHdcFleet::submit(
    const std::string& tenant_name, img::ImageU8 image) {
  std::shared_ptr<Tenant> tenant = find_tenant(tenant_name);
  if (tenant->retiring.load(std::memory_order_acquire)) {
    throw ShutdownError("SegHdcFleet tenant '" + tenant_name +
                        "' is retired");
  }
  PendingRequest request;
  request.image = std::move(image);
  // Retrieve the future before the request leaves our hands; the
  // stopwatch (default-constructed, already running) starts the latency
  // clock here, so time spent blocked at a full pending queue counts —
  // matching what the solo server's submit() measures.
  std::future<core::SegmentationResult> future = request.promise.get_future();
  if (tenant->options.admission == BackpressurePolicy::kReject) {
    switch (tenant->pending.try_push(request)) {
      case util::QueuePush::kOk:
        break;
      case util::QueuePush::kFull:
        tenant->rejected.add();
        throw RejectedError("SegHdcFleet tenant '" + tenant_name +
                            "' admission queue full");
      case util::QueuePush::kClosed:
        throw ShutdownError("SegHdcFleet tenant '" + tenant_name +
                            "' is retired");
    }
  } else if (!tenant->pending.push(request)) {
    // push() blocks outside the fleet lock, so a submitter parked at a
    // full queue never stalls the dispatcher; false means the queue
    // closed under a concurrent retire.
    throw ShutdownError("SegHdcFleet tenant '" + tenant_name +
                        "' is retired");
  }
  tenant->accepted.add();
  notify_progress();
  return future;
}

bool SegHdcFleet::dispatch_one_locked() {
  const std::size_t count = tenants_.size();
  if (count == 0) {
    return false;
  }
  for (std::size_t offset = 0; offset < count; ++offset) {
    const std::size_t index = (rotation_cursor_ + offset) % count;
    const std::shared_ptr<Tenant>& tenant = tenants_[index];
    // Weighted round-robin: a tenant gets up to `weight` dispatches per
    // turn, then the cursor moves on so the next tenant with work is
    // first in line — no tenant can monopolise freed slots.
    std::size_t dispatched_now = 0;
    while (dispatched_now < tenant->options.weight) {
      if (!tenant->in_flight.try_acquire()) {
        break;  // tenant at its own in-flight cap
      }
      if (!total_in_flight_.try_acquire()) {
        // Fleet-wide cap reached: nothing anywhere can dispatch until a
        // completion frees a slot. Give back the tenant slot and park.
        tenant->in_flight.release();
        if (dispatched_now > 0) {
          rotation_cursor_ = (index + 1) % count;
        }
        return dispatched_now > 0;
      }
      std::optional<PendingRequest> request = tenant->pending.try_pop();
      if (!request) {
        tenant->in_flight.release();
        total_in_flight_.release();
        break;  // nothing pending for this tenant
      }
      tenant->dispatched.add();
      // on_done fires exactly once per request — success, failure,
      // and server-side cancellation alike — so the quota slots always
      // come back and the dispatcher (plus any retire waiter) wakes.
      std::shared_ptr<Tenant> owner = tenant;
      util::Stopwatch accepted = request->accepted;
      tenant->server->submit(
          std::move(request->image), std::move(request->promise),
          [this, owner, accepted] {
            latency_.record(accepted.seconds());
            owner->in_flight.release();
            total_in_flight_.release();
            notify_progress();
          },
          accepted);
      ++dispatched_now;
    }
    if (dispatched_now > 0) {
      rotation_cursor_ = (index + 1) % count;
      // A retire(kDrain) waiter watches this tenant's pending count.
      progress_.notify_all();
      return true;
    }
  }
  return false;
}

void SegHdcFleet::dispatch_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    while (dispatch_one_locked()) {
    }
    if (stopping_ && tenants_.empty()) {
      return;
    }
    progress_.wait(lock);
  }
}

void SegHdcFleet::notify_progress() {
  // Lock-then-unlock fence: a release that lands between the
  // dispatcher's "nothing dispatchable" scan and its wait must not be
  // lost, so the notify is ordered after the dispatcher reaches the
  // wait (or after it re-acquires and rescans).
  { const std::lock_guard<std::mutex> lock(mutex_); }
  progress_.notify_all();
}

void SegHdcFleet::retire_tenant(const std::string& name, ShutdownMode mode) {
  std::shared_ptr<Tenant> tenant;
  std::vector<PendingRequest> dropped;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (const auto& candidate : tenants_) {
      if (candidate->name == name) {
        tenant = candidate;
        break;
      }
    }
    if (!tenant) {
      throw UnknownTenantError(name);
    }
    if (tenant->retiring.exchange(true, std::memory_order_acq_rel)) {
      // Lost the race with a concurrent retire: wait for the winner to
      // delist the tenant, then join the server stop below.
      progress_.wait(lock, [&] {
        return std::find(tenants_.begin(), tenants_.end(), tenant) ==
               tenants_.end();
      });
    } else if (mode == ShutdownMode::kDrain) {
      // Close admission, then let the dispatcher forward everything the
      // tenant already accepted — other tenants keep being served in
      // the same rotation throughout.
      tenant->pending.close();
      progress_.notify_all();
      progress_.wait(lock, [&] { return tenant->pending.size() == 0; });
      tenants_.erase(std::find(tenants_.begin(), tenants_.end(), tenant));
      progress_.notify_all();
    } else {
      // Cancel: delist first so the dispatcher stops forwarding, then
      // take back everything still at the gate.
      tenants_.erase(std::find(tenants_.begin(), tenants_.end(), tenant));
      dropped = tenant->pending.close_and_drain();
      progress_.notify_all();
    }
  }
  for (auto& request : dropped) {
    tenant->cancelled_at_gate.add();
    request.promise.set_exception(std::make_exception_ptr(CancelledError()));
  }
  // Outside the fleet lock: draining/cancelling the tenant's server can
  // take as long as its in-flight work, and the dispatcher must keep
  // serving the other tenants meanwhile.
  tenant->server->shutdown(mode);
  notify_progress();
}

void SegHdcFleet::shutdown(ShutdownMode mode) {
  for (;;) {
    std::string name;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;  // no new tenants from here on
      if (tenants_.empty()) {
        break;
      }
      name = tenants_.front()->name;
    }
    try {
      retire_tenant(name, mode);
    } catch (const UnknownTenantError&) {
      // A concurrent retire beat us to this tenant; move on.
    }
  }
  const std::lock_guard<std::mutex> lock(shutdown_mutex_);
  if (dispatcher_joined_) {
    return;
  }
  notify_progress();
  dispatcher_.join();
  dispatcher_joined_ = true;
}

TenantStats SegHdcFleet::tenant_stats_unlocked(const Tenant& tenant) const {
  TenantStats stats;
  stats.name = tenant.name;
  stats.retiring = tenant.retiring.load(std::memory_order_acquire);
  stats.accepted = tenant.accepted.value();
  stats.rejected = tenant.rejected.value();
  stats.dispatched = tenant.dispatched.value();
  stats.cancelled_at_gate = tenant.cancelled_at_gate.value();
  stats.pending = tenant.pending.size();
  stats.in_flight = tenant.in_flight.in_use();
  stats.server = tenant.server->stats();
  return stats;
}

TenantStats SegHdcFleet::tenant_stats(const std::string& name) const {
  const std::shared_ptr<Tenant> tenant = find_tenant(name);
  return tenant_stats_unlocked(*tenant);
}

FleetStats SegHdcFleet::stats() const {
  FleetStats stats;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stats.tenants.reserve(tenants_.size());
    for (const auto& tenant : tenants_) {
      stats.tenants.push_back(tenant_stats_unlocked(*tenant));
    }
  }
  for (const TenantStats& tenant : stats.tenants) {
    stats.accepted += tenant.accepted;
    stats.rejected += tenant.rejected;
    stats.dispatched += tenant.dispatched;
    stats.completed += tenant.server.completed;
    stats.failed += tenant.server.failed;
    stats.cancelled += tenant.cancelled_at_gate + tenant.server.cancelled;
    stats.pending += tenant.pending;
  }
  stats.in_flight = total_in_flight_.in_use();
  stats.uptime_seconds = uptime_.seconds();
  stats.throughput_images_per_sec =
      stats.uptime_seconds > 0.0
          ? static_cast<double>(stats.completed) / stats.uptime_seconds
          : 0.0;
  stats.latency = latency_.percentiles();
  return stats;
}

}  // namespace seghdc::serve
