#include "vod/streaming_system.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace cloudmedia::vod {

namespace {
constexpr std::uint64_t kSlotMask = 0xffffffffull;

std::uint64_t make_handle(std::uint32_t slot, std::uint32_t generation) noexcept {
  return static_cast<std::uint64_t>(slot) |
         (static_cast<std::uint64_t>(generation) << 32);
}
}  // namespace

StreamingSystem::StreamingSystem(sim::Simulator& simulator,
                                 const workload::Workload& workload,
                                 core::VodParameters params,
                                 cloud::CloudService& cloud,
                                 std::unique_ptr<core::Controller> controller,
                                 StreamingOptions options)
    : System(simulator, workload, params, cloud, std::move(controller), options,
             [this](int c, int i) -> ServicePool::CompletionHandler {
               return [this, c, i](const ServicePool::Completion& completion) {
                 handle_completion(c, i, completion);
               };
             }) {
  members_.resize(static_cast<std::size_t>(num_channels_));
  position_count_.assign(static_cast<std::size_t>(num_channels_),
                         std::vector<int>(static_cast<std::size_t>(num_chunks_), 0));
  if (options_.mode == core::StreamingMode::kP2p) owners_.resize(pools_.size());
  uplink_sum_.assign(static_cast<std::size_t>(num_channels_), 0.0);
  next_user_index_.assign(static_cast<std::size_t>(num_channels_), 0);
  last_arrival_time_.assign(static_cast<std::size_t>(num_channels_), 0.0);
}

// --- peer slab -------------------------------------------------------------

std::uint32_t StreamingSystem::slot_of(const Peer& peer) const noexcept {
  return static_cast<std::uint32_t>(&peer - slab_.data());
}

std::uint64_t StreamingSystem::peer_handle(const Peer& peer) const noexcept {
  return make_handle(slot_of(peer), peer.generation);
}

Peer* StreamingSystem::find_peer_mut(std::uint64_t handle) noexcept {
  const auto slot = static_cast<std::size_t>(handle & kSlotMask);
  if (slot >= slab_.size()) return nullptr;
  Peer& peer = slab_[slot];
  // Generation guard: a handle taken before the peer departed no longer
  // matches once the slot is freed (and possibly recycled) — late events
  // carrying it fall into the same miss path the old map lookup had.
  if (!peer.live || peer.generation != static_cast<std::uint32_t>(handle >> 32)) {
    return nullptr;
  }
  return &peer;
}

const Peer* StreamingSystem::find_peer(std::uint64_t handle) const noexcept {
  return const_cast<StreamingSystem*>(this)->find_peer_mut(handle);
}

std::vector<std::uint64_t> StreamingSystem::channel_peer_handles(
    int channel) const {
  check_channel(channel);
  const auto& slots = members_[static_cast<std::size_t>(channel)];
  std::vector<std::uint64_t> handles;
  handles.reserve(slots.size());
  for (const std::uint32_t slot : slots) {
    handles.push_back(make_handle(slot, slab_[slot].generation));
  }
  return handles;  // members_ is id-sorted already
}

void StreamingSystem::insert_by_id(std::vector<std::uint32_t>& slots,
                                   const Peer& peer) const {
  const auto it = std::lower_bound(
      slots.begin(), slots.end(), peer.id,
      [this](std::uint32_t slot, std::uint64_t id) {
        return slab_[slot].id < id;
      });
  slots.insert(it, slot_of(peer));
}

void StreamingSystem::erase_by_id(std::vector<std::uint32_t>& slots,
                                  const Peer& peer) const {
  // Binary search on the monotone peer id; the memmove is cheap next to a
  // per-tick sort.
  const auto it = std::lower_bound(
      slots.begin(), slots.end(), peer.id,
      [this](std::uint32_t slot, std::uint64_t id) {
        return slab_[slot].id < id;
      });
  CM_ENSURES(it != slots.end() && slab_[*it].id == peer.id);
  slots.erase(it);
}

void StreamingSystem::start_population() {
  for (int c = 0; c < num_channels_; ++c) {
    arrivals_.push_back(workload_->make_arrivals(c));
  }
  for (int c = 0; c < num_channels_; ++c) {
    last_arrival_time_[static_cast<std::size_t>(c)] = sim_->now();
    schedule_next_arrival(c);
  }
}

// --- user lifecycle -------------------------------------------------------

void StreamingSystem::schedule_next_arrival(int channel) {
  const auto ch = static_cast<std::size_t>(channel);
  const double t = arrivals_[ch].next_after(last_arrival_time_[ch]);
  last_arrival_time_[ch] = t;
  sim_->schedule_at(t, [this, channel, t] { handle_arrival(channel, t); });
}

void StreamingSystem::handle_arrival(int channel, double time) {
  const auto ch = static_cast<std::size_t>(channel);
  const std::uint64_t id = next_peer_id_++;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();  // LIFO: the hottest slot, still in cache
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  Peer& peer = slab_[slot];
  CM_ENSURES(!peer.live);
  peer.id = id;
  peer.channel = channel;
  // The walk is sampled straight into the slot, so a recycled slot reuses
  // its walk capacity (and assign() below its owned capacity).
  peer.uplink =
      workload_->sample_session(channel, next_user_index_[ch]++, peer.walk);
  CM_ENSURES(!peer.walk.empty());
  peer.arrival_time = time;
  peer.position = 0;
  peer.owned.assign(static_cast<std::size_t>(num_chunks_), false);
  peer.owned_count = 0;
  peer.last_late = -1e300;
  peer.downloading = false;
  peer.download_start = 0.0;
  peer.job_id = 0;
  peer.live = true;  // generation was bumped when the slot was freed
  members_[ch].push_back(slot);  // id is the largest yet: stays sorted
  ++live_peers_;
  const int entry = peer.walk.front();

  uplink_sum_[ch] += peer.uplink;
  ++position_count_[ch][static_cast<std::size_t>(entry)];
  tracker_.record_arrival(channel, entry);
  ++metrics_.counters.arrivals;

  begin_chunk(peer);

  schedule_next_arrival(channel);
}

void StreamingSystem::begin_chunk(Peer& peer) {
  const int chunk = peer.walk[peer.position];
  if (peer.owned[static_cast<std::size_t>(chunk)]) {
    // Replay from the local buffer: instant retrieval, watch for T0.
    ++metrics_.counters.buffered_replays;
    const std::uint64_t handle = peer_handle(peer);
    sim_->schedule_in(params_.chunk_duration,
                      [this, handle] { handle_dwell_end(handle); });
    return;
  }
  peer.downloading = true;
  peer.download_start = sim_->now();
  peer.job_id =
      pool(peer.channel, chunk).add_job(params_.chunk_bytes(), peer_handle(peer));
}

void StreamingSystem::handle_completion(int channel, int chunk,
                                        const ServicePool::Completion& completion) {
  Peer* found = find_peer_mut(completion.tag);
  if (found == nullptr) return;  // departed with an aborted job
  Peer& peer = *found;
  CM_ENSURES(peer.channel == channel);
  CM_ENSURES(peer.walk[peer.position] == chunk);

  peer.downloading = false;
  peer.job_id = 0;
  ++metrics_.counters.chunk_downloads;
  const bool late = completion.sojourn > params_.chunk_duration + 1e-9;
  if (late) {
    peer.last_late = sim_->now();
    ++metrics_.counters.late_downloads;
  }

  if (!peer.owned[static_cast<std::size_t>(chunk)]) {
    peer.owned[static_cast<std::size_t>(chunk)] = true;
    ++peer.owned_count;
    if (!owners_.empty()) {
      insert_by_id(owners_[pool_index(channel, chunk)], peer);
    }
  }

  // The user watches the chunk for T0; a late download stalls playback, so
  // the dwell in this position is max(T0, sojourn) from download start.
  const double dwell_end =
      std::max(completion.enqueue_time + params_.chunk_duration, sim_->now());
  const std::uint64_t handle = completion.tag;
  sim_->schedule_at(dwell_end, [this, handle] { handle_dwell_end(handle); });
}

void StreamingSystem::handle_dwell_end(std::uint64_t handle) {
  Peer* peer = find_peer_mut(handle);
  if (peer == nullptr) return;
  advance_walk(*peer);
}

void StreamingSystem::advance_walk(Peer& peer) {
  const auto ch = static_cast<std::size_t>(peer.channel);
  const int from = peer.walk[peer.position];
  --position_count_[ch][static_cast<std::size_t>(from)];

  if (peer.position + 1 < peer.walk.size()) {
    ++peer.position;
    const int to = peer.walk[peer.position];
    ++position_count_[ch][static_cast<std::size_t>(to)];
    tracker_.record_transition(peer.channel, from, to);
    begin_chunk(peer);
  } else {
    tracker_.record_transition(peer.channel, from, std::nullopt);
    depart(peer);
  }
}

void StreamingSystem::depart(Peer& peer) {
  const auto ch = static_cast<std::size_t>(peer.channel);
  if (peer.downloading) {
    // Abort the in-flight retrieval: without this the pool keeps a ghost
    // job that holds a per-job capacity share forever and inflates
    // cloud_bytes_served (its completion would fire into a missing peer).
    pool(peer.channel, peer.walk[peer.position]).remove_job(peer.job_id);
    peer.downloading = false;
  }
  if (!owners_.empty()) {
    for (int i = 0; i < num_chunks_; ++i) {
      if (peer.owned[static_cast<std::size_t>(i)]) {
        erase_by_id(owners_[pool_index(peer.channel, i)], peer);
      }
    }
  }
  uplink_sum_[ch] -= peer.uplink;
  erase_by_id(members_[ch], peer);

  ++metrics_.counters.departures;

  // Free the slot: bump the generation so outstanding handles (pending
  // dwell events, aborted pool jobs) go stale; walk/owned keep their
  // capacity for the next occupant.
  peer.live = false;
  ++peer.generation;
  free_slots_.push_back(slot_of(peer));
  --live_peers_;
}

std::size_t StreamingSystem::evict_channel(int channel) {
  check_channel(channel);
  const auto ch = static_cast<std::size_t>(channel);
  // Snapshot: members_ is kept sorted by peer id, so this is already the
  // ascending-id order the old sorted-id map walk produced; depart()
  // mutates the member vector underneath the loop.
  const std::vector<std::uint32_t> slots = members_[ch];
  for (const std::uint32_t slot : slots) {
    Peer& peer = slab_[slot];
    const int current = peer.walk[peer.position];
    --position_count_[ch][static_cast<std::size_t>(current)];
    tracker_.record_transition(channel, current, std::nullopt);
    depart(peer);
  }
  // Pending dwell/completion events for evicted peers carry stale
  // generations and are ignored when they fire.
  return slots.size();
}

double StreamingSystem::uplink_sum(int channel) const {
  check_channel(channel);
  return uplink_sum_[static_cast<std::size_t>(channel)];
}

// --- population hooks -------------------------------------------------------

void StreamingSystem::observe_population(
    std::vector<std::vector<double>>& occupancy,
    std::vector<double>& mean_uplink) const {
  for (int c = 0; c < num_channels_; ++c) {
    const auto ch = static_cast<std::size_t>(c);
    for (int i = 0; i < num_chunks_; ++i) {
      occupancy[ch][static_cast<std::size_t>(i)] =
          static_cast<double>(position_count_[ch][static_cast<std::size_t>(i)]);
    }
    mean_uplink[ch] = members_[ch].empty()
                          ? workload_->uplink_distribution().mean()
                          : uplink_sum_[ch] / static_cast<double>(members_[ch].size());
  }
}

void StreamingSystem::chunk_demand(std::vector<double>& demand,
                                   std::vector<double>& peer) const {
  // Demand is each pool's active jobs. In P2P mode peer upload follows the
  // rarest-first scheduler (Sec. IV-C): owners' uplinks go to active
  // demand, the residual stands by over owned chunks.
  const double r = params_.streaming_rate;
  const bool p2p = options_.mode == core::StreamingMode::kP2p;
  std::vector<int> order;
  if (p2p) {
    spare_.resize(slab_.size());
    order.resize(static_cast<std::size_t>(num_chunks_));
  }

  for (int c = 0; c < num_channels_; ++c) {
    const auto ch = static_cast<std::size_t>(c);
    for (int i = 0; i < num_chunks_; ++i) {
      const std::size_t key = pool_index(c, i);
      demand[key] = static_cast<double>(pools_[key]->active_jobs());
    }
    if (!p2p || members_[ch].empty()) continue;

    for (const std::uint32_t slot : members_[ch]) {
      spare_[slot] = slab_[slot].uplink;
    }

    // Chunks by rareness (ascending owner count).
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return owners_[pool_index(c, a)].size() < owners_[pool_index(c, b)].size();
    });

    // Every sum below runs over an id-sorted owner list, so it accumulates
    // in ascending peer-id order.
    for (int chunk : order) {
      const std::size_t key = pool_index(c, chunk);
      const double wanted = demand[key] * r;
      const std::vector<std::uint32_t>& owners = owners_[key];
      if (wanted <= 0.0 || owners.empty()) continue;
      double available = 0.0;
      for (const std::uint32_t slot : owners) available += spare_[slot];
      if (available <= 0.0) continue;
      const double supply = std::min(wanted, available);
      const double keep = 1.0 - supply / available;
      for (const std::uint32_t slot : owners) spare_[slot] *= keep;
      peer[key] = supply;
    }

    // Standby: split each peer's residual upload evenly over its chunks.
    // The share is fixed per peer here, so adding it chunk-major through
    // the owner lists matches a peer-major scan.
    for (const std::uint32_t slot : members_[ch]) {
      const int owned = slab_[slot].owned_count;
      double& spare = spare_[slot];
      spare = spare > 0.0 && owned > 0 ? spare / static_cast<double>(owned)
                                       : 0.0;
    }
    for (int i = 0; i < num_chunks_; ++i) {
      const std::size_t key = pool_index(c, i);
      for (const std::uint32_t slot : owners_[key]) {
        if (spare_[slot] != 0.0) peer[key] += spare_[slot];
      }
    }
  }
}

double StreamingSystem::quality_now(std::vector<double>& per_channel) const {
  for (int c = 0; c < num_channels_; ++c) {
    per_channel[static_cast<std::size_t>(c)] = channel_quality_now(c);
  }
  return system_quality_now();
}

double StreamingSystem::users_now(std::vector<double>& per_channel) const {
  for (std::size_t c = 0; c < members_.size(); ++c) {
    per_channel[c] = static_cast<double>(members_[c].size());
  }
  return static_cast<double>(live_peers_);
}

// --- introspection ----------------------------------------------------------

bool StreamingSystem::peer_is_smooth(const Peer& peer) const {
  const double now = sim_->now();
  if (peer.last_late > now - options_.quality_window) return false;
  // An in-flight download already past its deadline is a stall in progress.
  if (peer.downloading && now - peer.download_start > params_.chunk_duration) {
    return false;
  }
  return true;
}

double StreamingSystem::system_quality_now() const {
  if (live_peers_ == 0) return 1.0;
  std::size_t smooth = 0;
  for (const Peer& peer : slab_) {
    if (peer.live && peer_is_smooth(peer)) ++smooth;
  }
  return static_cast<double>(smooth) / static_cast<double>(live_peers_);
}

double StreamingSystem::channel_quality_now(int channel) const {
  check_channel(channel);
  const auto ch = static_cast<std::size_t>(channel);
  if (members_[ch].empty()) return 1.0;
  std::size_t smooth = 0;
  for (const std::uint32_t slot : members_[ch]) {
    if (peer_is_smooth(slab_[slot])) ++smooth;
  }
  return static_cast<double>(smooth) / static_cast<double>(members_[ch].size());
}

std::size_t StreamingSystem::channel_users(int channel) const {
  check_channel(channel);
  return members_[static_cast<std::size_t>(channel)].size();
}

int StreamingSystem::owner_count(int channel, int chunk) const {
  const std::size_t key = pool_index(channel, chunk);
  return owners_.empty() ? 0 : static_cast<int>(owners_[key].size());
}

int StreamingSystem::position_count(int channel, int chunk) const {
  check_cell(channel, chunk);
  return position_count_[static_cast<std::size_t>(channel)]
                        [static_cast<std::size_t>(chunk)];
}

}  // namespace cloudmedia::vod
