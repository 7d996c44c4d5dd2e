#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "vod/system.h"

namespace cloudmedia::vod {

/// One peer (VoD user). Owned chunks stay buffered until departure
/// (Sec. III-B: the playback buffer caches any one video entirely).
///
/// Peers live in a slab (see StreamingSystem): the object is recycled
/// across sessions — `id` is the stable monotone public identity, while
/// `generation`/`live` are slab bookkeeping. `walk` and `owned` keep
/// their capacity across reuse, and an arrival samples its walk straight
/// into `walk`, so a recycled slot allocates no peer storage.
struct Peer {
  std::uint64_t id = 0;
  int channel = 0;
  double uplink = 0.0;          ///< bytes/s contributed in P2P mode
  double arrival_time = 0.0;
  std::vector<int> walk;        ///< predetermined chunk walk
  std::size_t position = 0;     ///< index into walk
  std::vector<bool> owned;      ///< buffered chunks
  int owned_count = 0;          ///< set bits in `owned`
  double last_late = -1e300;    ///< completion time of last late retrieval
  bool downloading = false;
  double download_start = 0.0;
  std::uint64_t job_id = 0;     ///< in-flight pool job (when downloading)

  // --- slab bookkeeping (maintained by StreamingSystem) ----------------
  std::uint32_t generation = 0; ///< bumped on free; stale handles miss
  bool live = false;
};

/// The discrete population model of the CloudMedia system (Fig. 3): one
/// object per peer, each walking its own chunk sequence and downloading
/// each chunk as a discrete ServicePool job; the provisioning loop is the
/// System shell's. Deterministic for a given Workload seed.
///
/// Peer storage is a generation-guarded slab (the same pattern as
/// CohortSystem's SoA arena): peers occupy recycled slots in one
/// contiguous vector, each channel keeps a dense vector of member slots
/// sorted by peer id, and every scheduled event or pool job tags
/// the peer by handle = slot | (generation << 32). A handle from a
/// departed session fails the generation check and the event is dropped —
/// the same miss semantics the old unordered_map gave, without any
/// hashing on the arrival/completion/dwell hot path. Public peer `id`s
/// remain monotone, and every order-sensitive container (the channel
/// member lists eviction walks, the per-chunk owner lists the rarest-first
/// rebalance sums over) is kept sorted by them, so iteration order — and
/// therefore every float summation — is explicit rather than
/// hash-layout-accidental.
class StreamingSystem final : public System {
 public:
  StreamingSystem(sim::Simulator& simulator, const workload::Workload& workload,
                  core::VodParameters params, cloud::CloudService& cloud,
                  std::unique_ptr<core::Controller> controller,
                  StreamingOptions options);

  // --- introspection (tests, benches) -----------------------------------
  [[nodiscard]] std::size_t channel_users(int channel) const;
  /// Live peers owning chunk `chunk` of `channel`: the size of its owner
  /// list. P2P mode only — client–server mode keeps no owner lists, so
  /// this is 0 there even when peers have buffered the chunk (read the
  /// per-peer `owned` bitmaps instead).
  [[nodiscard]] int owner_count(int channel, int chunk) const;
  [[nodiscard]] int position_count(int channel, int chunk) const;
  /// Instantaneous smooth-playback fraction (1.0 when no users).
  [[nodiscard]] double system_quality_now() const;
  [[nodiscard]] double channel_quality_now(int channel) const;

  /// Visit every live peer (slab order — ascending slot, not id).
  template <typename Fn>
  void for_each_peer(Fn&& fn) const {
    for (const Peer& peer : slab_) {
      if (peer.live) fn(peer);
    }
  }
  /// Resolve a generation-guarded peer handle; nullptr if the peer has
  /// departed (even when its slot has since been recycled).
  [[nodiscard]] const Peer* find_peer(std::uint64_t handle) const noexcept;
  /// The handle events/pool jobs carry for `peer` in its current session.
  [[nodiscard]] std::uint64_t peer_handle(const Peer& peer) const noexcept;
  /// Member handles of `channel`, sorted by monotone peer id — the
  /// deterministic order eviction uses.
  [[nodiscard]] std::vector<std::uint64_t> channel_peer_handles(int channel) const;

  [[nodiscard]] double uplink_sum(int channel) const;

  /// Force every current member of `channel` to leave immediately —
  /// mid-download departures abort their in-flight pool job. Models an
  /// operator pulling a channel (and exercises the depart-while-downloading
  /// path, which the organic lifecycle — depart only after a completed
  /// chunk — never reaches). Returns how many peers were evicted.
  std::size_t evict_channel(int channel);

 private:
  void start_population() override;
  void observe_population(std::vector<std::vector<double>>& occupancy,
                          std::vector<double>& mean_uplink) const override;
  void chunk_demand(std::vector<double>& demand,
                    std::vector<double>& peer) const override;
  [[nodiscard]] double quality_now(std::vector<double>& per_channel) const override;
  [[nodiscard]] double users_now(std::vector<double>& per_channel) const override;

  void schedule_next_arrival(int channel);
  void handle_arrival(int channel, double time);
  void begin_chunk(Peer& peer);
  void handle_completion(int channel, int chunk,
                         const ServicePool::Completion& completion);
  void handle_dwell_end(std::uint64_t handle);
  void advance_walk(Peer& peer);
  void depart(Peer& peer);
  void insert_by_id(std::vector<std::uint32_t>& slots, const Peer& peer) const;
  void erase_by_id(std::vector<std::uint32_t>& slots, const Peer& peer) const;

  [[nodiscard]] Peer* find_peer_mut(std::uint64_t handle) noexcept;
  [[nodiscard]] std::uint32_t slot_of(const Peer& peer) const noexcept;
  [[nodiscard]] bool peer_is_smooth(const Peer& peer) const;

  // Peer slab: slot-indexed, LIFO free list, generation-guarded handles
  // (see the class comment). members_ holds each channel's live slots
  // sorted by ascending peer id: arrivals append (ids are monotone, so the
  // back is always the largest) and departures binary-search-erase, which
  // keeps the rebalance/eviction iteration order free — no per-tick sort.
  std::vector<Peer> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_peers_ = 0;
  std::vector<std::vector<std::uint32_t>> members_;         ///< per channel
  // owners_[pool_index(c, j)] holds the slots of the live peers owning
  // chunk j of channel c, sorted by ascending peer id, and equals the
  // `owned` bitmaps at all times: a first gain inserts, a departure erases
  // from every owned chunk's list. It is the only per-chunk owner record:
  // its sizes are the rarest-first ranking, and the rebalance sums run
  // over it in ascending-id order. P2P mode only (empty in client–server
  // mode, where nothing reads it; the per-peer `owned` bitmaps remain).
  std::vector<std::vector<std::uint32_t>> owners_;
  std::vector<std::vector<int>> position_count_;            ///< [channel][chunk]
  std::vector<double> uplink_sum_;                          ///< per channel
  // chunk_demand scratch, slot-indexed, sized in P2P mode only: each
  // member's uplink not yet given to active demand, then that residual's
  // standby share per owned chunk.
  mutable std::vector<double> spare_;

  std::vector<workload::PoissonArrivals> arrivals_;
  std::vector<std::uint64_t> next_user_index_;
  std::vector<double> last_arrival_time_;
  std::uint64_t next_peer_id_ = 1;
};

}  // namespace cloudmedia::vod
