// SegHdcSession: the reusable, many-image serving form of the SegHDC
// pipeline (paper Fig. 2).
//
// `SegHdc::segment()` is stateless and therefore rebuilds the position
// and color item memories on every call — fine for one image, wasteful
// for traffic. A session builds that immutable encoder state once per
// image geometry (height, width, channels) and reuses it across calls:
//
//   SegHdcSession session(config);
//   for (const auto& image : stream) {
//     const auto result = session.segment(image);   // encoders reused
//   }
//
// or, for batches, `segment_many` shards the images across the thread
// pool with one scratch arena per worker:
//
//   const auto results = session.segment_many(images);
//
// Inside one call, the encode is tiled into row bands (see
// SegHdcConfig::tile_rows): the dedup scan, the weight histogram, and
// the bind pass all parallelise across the pool, so a single large
// image saturates the cores, not just batches of small ones.
//
// Guarantees:
//   - `segment` is bitwise-identical to `SegHdc::segment` for the same
//     config and image (same label maps, margins, op counts), at every
//     pool size and tile size — the band merge reproduces the serial
//     row-major first-occurrence order exactly.
//   - `segment_many` returns exactly what a sequential `segment` loop
//     returns, for every pool size (per-image work is deterministic and
//     images never share mutable state).
//   - const methods are safe to call concurrently; the encoder-state
//     cache is internally synchronised.
//   - the pipeline splits at the EncodedImage seam: `encode(image,
//     scratch)` then `cluster_and_finalize(encoded)` equals
//     `segment(image)` bit for bit. Each serving worker (src/serve/)
//     runs the two back to back so it can time and trace them apart.
#ifndef SEGHDC_CORE_SESSION_HPP
#define SEGHDC_CORE_SESSION_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/core/config.hpp"
#include "src/core/seghdc.hpp"
#include "src/hdc/hypervector.hpp"
#include "src/imaging/image.hpp"
#include "src/util/parallel.hpp"

namespace seghdc::core {

/// Per-frame observability for the temporal stream path
/// (`SegHdcSession::segment_stream`): what the warm-start machinery
/// actually did for this frame, so serving dashboards and the bench can
/// report measured reuse instead of assumed reuse.
struct StreamFrameStats {
  /// 0-based index of this frame within its stream.
  std::size_t frame_index = 0;
  /// True when K-Means was seeded from the previous frame's centroids
  /// (false on the first frame of a stream / after a geometry change).
  bool warm = false;
  /// True when the frame was byte-identical to its predecessor and the
  /// cached previous result was replayed without any pipeline work.
  bool replayed = false;
  /// Row-band tiles in the stream cache layout (0 when the band cache
  /// is inactive: dedup disabled or fault injection on).
  std::size_t tiles_total = 0;
  /// Bands whose pixel bytes were unchanged — dedup table and encoded
  /// HVs reused from the previous frame.
  std::size_t tiles_reused = 0;
  /// Bands re-encoded because their pixels changed.
  std::size_t tiles_encoded = 0;
  /// K-Means iterations this frame actually ran (0 on replay).
  std::size_t kmeans_iterations = 0;
  /// Wall time of the whole segment_stream call.
  double seconds = 0.0;
};

/// A segmented stream frame: the segmentation itself plus the stream
/// stats describing how much of it was reused from the previous frame.
struct StreamFrameResult {
  SegmentationResult result;
  StreamFrameStats stats;
};

class SegHdcSession {
  struct EncoderState;   // per-geometry item memories (private)
  struct EncodeScratch;  // per-worker encode arena (private)
  struct StreamState;    // per-stream temporal cache (private)

 public:
  struct Options {
    /// Pool for every parallel loop the session issues (image sharding
    /// in `segment_many`, encode bind pass, clustering). nullptr = the
    /// process-wide shared pool. Outputs are identical for every pool.
    util::ThreadPool* pool = nullptr;
  };

  /// Validates `config` (throws std::invalid_argument on bad values).
  explicit SegHdcSession(const SegHdcConfig& config)
      : SegHdcSession(config, Options{}) {}
  SegHdcSession(const SegHdcConfig& config, const Options& options);

  ~SegHdcSession();
  SegHdcSession(const SegHdcSession&) = delete;
  SegHdcSession& operator=(const SegHdcSession&) = delete;

  const SegHdcConfig& config() const { return config_; }

  /// Opaque reusable encode arena for external pipeline drivers (the
  /// serving layer in src/serve/): one per worker thread, passed to the
  /// `encode`/`segment` overloads below, it keeps the dedup tables and
  /// memoised position/color HVs warm across that worker's images
  /// without contending on the session-owned shared scratch. Movable,
  /// not copyable; NOT safe to share between concurrent calls. A
  /// default-constructed Scratch is cold but valid.
  class Scratch {
   public:
    Scratch();
    ~Scratch();
    Scratch(Scratch&&) noexcept;
    Scratch& operator=(Scratch&&) noexcept;
    Scratch(const Scratch&) = delete;
    Scratch& operator=(const Scratch&) = delete;

   private:
    friend class SegHdcSession;
    std::unique_ptr<EncodeScratch> impl_;
  };

  /// Temporal state for one ordered frame sequence (camera feed, video):
  /// the previous frame's pixel bytes, the per-band dedup/HV caches, the
  /// previous result (for byte-identical replay), and the previous
  /// K-Means centroids (for warm seeding). Create one per stream and
  /// feed it consecutive frames through `segment_stream`; `reset()`
  /// drops all temporal state so the next frame runs cold. Movable, not
  /// copyable; NOT safe to share between concurrent calls — frames of
  /// one stream are ordered by definition.
  class Stream {
   public:
    Stream();
    ~Stream();
    Stream(Stream&&) noexcept;
    Stream& operator=(Stream&&) noexcept;
    Stream(const Stream&) = delete;
    Stream& operator=(const Stream&) = delete;

    /// Forgets everything about previous frames: the next
    /// `segment_stream` call is a cold first frame.
    void reset();

    /// Stats of the most recent frame through this stream (all zeros
    /// before the first frame).
    const StreamFrameStats& last_stats() const;

   private:
    friend class SegHdcSession;
    std::unique_ptr<StreamState> impl_;
  };

  /// Encodes every pixel of `image` (1 or 3 channels) into pixel HVs,
  /// reusing the cached encoder state for the image's geometry.
  EncodedImage encode(const img::ImageU8& image) const;

  /// Same, through a caller-owned arena (the first half of a serving
  /// worker's request). Deterministic: output is bit-identical whether the
  /// arena is cold, warm, or the session-shared one. Safe to call
  /// concurrently as long as each call uses a distinct Scratch.
  EncodedImage encode(const img::ImageU8& image, Scratch& scratch) const;

  /// The second half of a serving worker's request: clusters an
  /// `encode` result and builds the label map (+ margins when
  /// configured). Consumes `encoded`. `segment(image)` ==
  /// `cluster_and_finalize(encode(image))` bit for bit — splitting the
  /// call never changes the output. Thread-safe (no mutable session
  /// state); `timings.encode_seconds` is 0 here, the caller measured
  /// the encode.
  SegmentationResult cluster_and_finalize(EncodedImage&& encoded) const;

  /// Full pipeline: encode + cluster + label map. Bitwise-identical to
  /// `SegHdc::segment` with the same config.
  SegmentationResult segment(const img::ImageU8& image) const;

  /// Full pipeline through a caller-owned arena; same guarantees as the
  /// Scratch `encode` overload.
  SegmentationResult segment(const img::ImageU8& image,
                             Scratch& scratch) const;

  /// Segments a batch: images are sharded across the pool, one worker
  /// per pool thread, each with its own scratch arena; the per-image
  /// inner loops run serially on their worker. results[i] is exactly
  /// `segment(images[i])` for every pool size. Results are moved into
  /// the returned vector (via the streaming overload below); nothing is
  /// copied.
  std::vector<SegmentationResult> segment_many(
      std::span<const img::ImageU8> images) const;

  /// Streaming form: hands each result to `sink(index, std::move(r))`
  /// the moment its image completes, so peak memory is one in-flight
  /// result per worker instead of the whole batch — the shape for very
  /// large batches (write-to-disk, ship-over-network sinks).
  /// Completion order is arbitrary but the delivered (index, result)
  /// pairs are exactly the collecting overload's vector. Sink
  /// invocations are serialised internally; the callback need not be
  /// thread-safe, but it runs on worker threads and while it runs its
  /// worker segments nothing.
  void segment_many(
      std::span<const img::ImageU8> images,
      const std::function<void(std::size_t, SegmentationResult&&)>& sink)
      const;

  /// Temporal/video serving: segments `frame` as the next frame of
  /// `stream`, warm-starting from the stream's previous frame. Opt-in
  /// semantics — warm-started labels may differ from a cold `segment`
  /// of the same frame (by design; the drift is bounded by tests):
  ///   - K-Means is seeded from the previous frame's majority-binarized
  ///     centroids instead of `largest_color_difference_seeds`, and
  ///     stops on convergence, so near-identical frames converge in a
  ///     fraction of the iteration budget.
  ///   - Row bands whose pixel bytes are unchanged since the previous
  ///     frame (content hash + exact byte compare) reuse their cached
  ///     dedup table and encoded HVs instead of re-encoding.
  ///   - A frame byte-identical to its predecessor replays the cached
  ///     previous result outright (bit-for-bit equal labels, zero
  ///     pipeline work).
  /// The FIRST frame of a stream (and the first after `reset()` or a
  /// geometry change) runs the exact cold path: bit-identical to
  /// `segment(frame)`. Deterministic: the same frame sequence produces
  /// bit-identical labels at every pool size, tile size, and kernel
  /// backend (band caches change what is recomputed, never what is
  /// computed). Thread-safe across *streams* (const session state is
  /// internally synchronised); calls on one Stream must be externally
  /// ordered. Falls back to full re-encode per frame (no band cache,
  /// tiles_total = 0) when deduplication is off or fault injection is
  /// on; replay and warm seeding still apply.
  StreamFrameResult segment_stream(const img::ImageU8& frame,
                                   Stream& stream) const;

  /// Number of distinct (height, width, channels) encoder states built
  /// so far — observability for tests and serving dashboards.
  std::size_t encoder_states_built() const;

  /// The resolved tile-rows override: SegHdcConfig::tile_rows when
  /// non-zero, else the SEGHDC_TILE_ROWS environment value read at
  /// construction, else 0 (auto-size per image from the pool).
  /// Observability for tests and bench headers; the output never
  /// depends on it.
  std::size_t tile_rows_override() const { return tile_rows_; }

 private:
  /// Returns the encoder state for the image's geometry, building and
  /// caching it on first use (thread-safe; concurrent same-geometry
  /// builds resolve to one winner).
  const EncoderState& state_for(const img::ImageU8& image) const;

  /// Cold encode on the file-local band encoder in session.cpp: one
  /// band scans straight into the global table; several bands scan in
  /// parallel, merge in band order and relabel. Either way the global
  /// uniques are then memoised and bound.
  EncodedImage encode_impl(const img::ImageU8& image,
                           const EncoderState& state,
                           EncodeScratch& scratch) const;
  SegmentationResult segment_impl(const img::ImageU8& image,
                                  EncodeScratch& scratch) const;
  /// Finalize-stage knobs for the stream path. Defaults reproduce the
  /// cold `segment` behaviour exactly.
  struct FinalizeOptions {
    /// Non-empty = warm start: seed K-Means from these binary HVs
    /// (previous frame's majority centroids) instead of
    /// `largest_color_difference_seeds`.
    std::span<const hdc::HyperVector> warm_centroids{};
    /// Force `stop_on_convergence` regardless of config — semantics-free
    /// (a converged assignment is a fixed point), it only banks unused
    /// iterations on warm frames.
    bool force_stop_on_convergence = false;
    /// When non-null, receives the final centroids' majority-binarized
    /// snapshots (the warm seeds for the next frame).
    std::vector<hdc::HyperVector>* centroids_out = nullptr;
  };

  /// Cluster + label map + margins over a finished encode. Fills
  /// `timings.cluster_seconds` (and total = cluster); callers stitch in
  /// the encode time they measured.
  SegmentationResult finalize_impl(EncodedImage encoded) const;
  SegmentationResult finalize_impl(EncodedImage encoded,
                                   const FinalizeOptions& options) const;

  /// Stream-banded encode: the same band scan, merge, bind and relabel
  /// as `encode_impl`, but only bands whose bytes changed are scanned
  /// and bound; the rest reuse their caches in `stream`. Output is
  /// bit-identical to `encode_impl` (op counts reflect work actually
  /// done). Fills the tile fields of `stats`.
  EncodedImage encode_stream_impl(const img::ImageU8& image,
                                  const EncoderState& state,
                                  StreamState& stream,
                                  StreamFrameStats& stats) const;

  /// Band height used to tile this image's encode passes (>= 1).
  std::size_t tile_rows_for(std::size_t height) const;

  /// Band height for the STREAM cache layout. Streams never collapse to
  /// one band on small pools: bands are the reuse granularity there —
  /// a single band can only ever reuse a byte-identical frame, which
  /// the replay shortcut already covers. Purely a performance knob like
  /// tile_rows_for: labels are identical for every value.
  std::size_t stream_tile_rows_for(std::size_t height) const;

  EncodeScratch& shared_scratch() const;
  util::ThreadPool& pool() const;

  SegHdcConfig config_;
  util::ThreadPool* pool_ = nullptr;
  std::size_t tile_rows_ = 0;  ///< resolved override; 0 = auto
  mutable std::mutex states_mutex_;
  mutable std::unordered_map<std::uint64_t, std::unique_ptr<EncoderState>>
      states_;
  // Warm scratch for single-image segment()/encode() streams; guarded by
  // scratch_mutex_ (losers of the try_lock use a cold private scratch).
  mutable std::mutex scratch_mutex_;
  mutable std::unique_ptr<EncodeScratch> shared_scratch_;
};

}  // namespace seghdc::core

#endif  // SEGHDC_CORE_SESSION_HPP
