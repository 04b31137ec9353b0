#include "src/core/session.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/color_encoder.hpp"
#include "src/core/kmeans.hpp"
#include "src/core/position_encoder.hpp"
#include "src/hdc/fault.hpp"
#include "src/imaging/color.hpp"
#include "src/obs/trace.hpp"
#include "src/util/contracts.hpp"
#include "src/util/stopwatch.hpp"

namespace seghdc::core {

namespace {

/// Packs (row block, column block, color triple) into a dedup key.
/// Layout: [block_row:16][block_col:16][c0:8][c1:8][c2:8] = 56 bits.
std::uint64_t make_key(std::size_t block_row, std::size_t block_col,
                       const std::array<std::uint8_t, 3>& color) {
  return (static_cast<std::uint64_t>(block_row) << 40) |
         (static_cast<std::uint64_t>(block_col) << 24) |
         (static_cast<std::uint64_t>(color[0]) << 16) |
         (static_cast<std::uint64_t>(color[1]) << 8) |
         static_cast<std::uint64_t>(color[2]);
}

void validate_image(const img::ImageU8& image) {
  util::expects(image.channels() == 1 || image.channels() == 3,
                "SegHdc supports 1- or 3-channel images");
  util::expects(image.width() > 0 && image.height() > 0,
                "SegHdc needs a non-empty image");
  // Key packing supports 2^16 blocks per axis.
  util::expects(image.width() < 65536 && image.height() < 65536,
                "SegHdc supports images up to 65535x65535");
}

/// Geometry cache key: height/width < 2^16 (validated), channels in
/// {1, 3}.
std::uint64_t geometry_key(const img::ImageU8& image) {
  return (static_cast<std::uint64_t>(image.height()) << 24) |
         (static_cast<std::uint64_t>(image.width()) << 8) |
         static_cast<std::uint64_t>(image.channels());
}

/// Dedup-map reserve sized from an observed unique ratio with 10%
/// headroom, so a slightly busier frame than the last one still avoids
/// mid-scan rehashing; clamped to the pixel count (the true maximum).
std::size_t expected_unique(std::size_t pixels, double unique_ratio) {
  const double estimate =
      unique_ratio * static_cast<double>(pixels) * 1.1 + 16.0;
  return std::min(pixels, static_cast<std::size_t>(estimate));
}

/// Quantisation for the dedup key: map v to the midpoint of its bucket
/// so encoded colors stay centred in the original range.
std::uint8_t quantize_midpoint(std::uint8_t v, std::size_t shift) {
  if (shift == 0) {
    return v;
  }
  const std::uint8_t bucket = static_cast<std::uint8_t>(v >> shift);
  const std::uint32_t mid =
      (static_cast<std::uint32_t>(bucket) << shift) + ((1u << shift) >> 1);
  return static_cast<std::uint8_t>(std::min<std::uint32_t>(mid, 255));
}

/// FNV-1a over raw bytes: the fast "did this band change?" check for the
/// stream path. Never trusted alone — a hash hit is confirmed with an
/// exact byte compare before any cache reuse (collisions must not be
/// able to corrupt labels).
std::uint64_t fnv1a_bytes(const std::uint8_t* data, std::size_t count) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (std::size_t i = 0; i < count; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Pixel (x, y)'s dedup color: each channel quantised to its bucket
/// midpoint, unused channels zero.
std::array<std::uint8_t, 3> quantized_color(const img::ImageU8& image,
                                            std::size_t x, std::size_t y,
                                            std::size_t shift) {
  std::array<std::uint8_t, 3> color{0, 0, 0};
  for (std::size_t c = 0; c < image.channels(); ++c) {
    color[c] = quantize_midpoint(image(x, y, c), shift);
  }
  return color;
}

/// One unique point: its representative (first-occurrence) pixel and
/// quantised color. validate_image caps both axes at 65535.
struct UniqueRef {
  std::uint16_t x, y;
  std::array<std::uint8_t, 3> color;
};

/// The dedup table of one row band: per local unique point, in the
/// band's row-major first-occurrence order, its ref and pixel weight.
/// Bands start and end on position-block boundaries, so no key occurs in
/// two bands. Reused across images (cleared, capacity retained). A
/// stream band also keeps its pixel-byte hash and its pixels' band-local
/// ids, so an unchanged band skips the scan on the next frame: the table
/// is a pure function of the band's bytes.
struct Band {
  std::unordered_map<std::uint64_t, std::uint32_t> key_to_local;
  std::vector<UniqueRef> refs;
  std::vector<std::uint32_t> weights;
  std::uint64_t hash = 0;
  /// False until the band's scan has finished (a throw mid-scan must not
  /// leave a half-built table eligible for reuse).
  bool valid = false;
  std::vector<std::uint32_t> local_ids;  // per band pixel (streams only)
};

/// Memoised color HVs. Their values are pure functions of the encoder
/// state, so they survive across images of one geometry. Node-based
/// map: value addresses are stable across rehashing, so the per-point
/// views may point into it.
struct ColorMemo {
  std::unordered_map<std::uint32_t, hdc::HyperVector> cache;
  std::vector<const hdc::HyperVector*> of;
};

/// The dedup scan of rows [y_begin, y_end): keys every pixel by (row
/// block, column block, quantised color) and records each key's first
/// occurrence in `band`, counting pixel weights on the way. Writes each
/// band pixel's band-local id, row-major, to `local_ids`.
void scan_band(const img::ImageU8& image, const PositionEncoder& position,
               std::size_t shift, std::size_t y_begin, std::size_t y_end,
               double unique_ratio, Band& band,
               std::span<std::uint32_t> local_ids) {
  const std::size_t width = image.width();
  band.key_to_local.clear();
  band.refs.clear();
  band.weights.clear();
  band.key_to_local.reserve(
      expected_unique((y_end - y_begin) * width, unique_ratio));
  std::size_t i = 0;
  for (std::size_t y = y_begin; y < y_end; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      const auto color = quantized_color(image, x, y, shift);
      // kRandom position HVs differ per block index as well, so the
      // same key function applies to every encoding variant.
      const std::uint64_t key =
          make_key(position.row_block(y), position.col_block(x), color);
      const auto [it, inserted] = band.key_to_local.try_emplace(
          key, static_cast<std::uint32_t>(band.refs.size()));
      if (inserted) {
        band.refs.push_back(UniqueRef{static_cast<std::uint16_t>(x),
                                      static_cast<std::uint16_t>(y), color});
        band.weights.push_back(0);
      }
      ++band.weights[it->second];
      local_ids[i++] = it->second;
    }
  }
}

/// Encodes `refs` into rows of `hvs`: each row is its point's position
/// HV (row HV XOR column HV, straight from the encoder's ladders) bound
/// to its color HV. Color HVs repeat across blocks, so each distinct one
/// is memoised in `memo` and built once per session geometry; the
/// per-point work left is word-parallel XORs straight into the packed
/// block, data-parallel over points. Also fills each point's intensity.
void bind_unique(std::span<const UniqueRef> refs,
                 const PositionEncoder& position, const ColorEncoder& color,
                 ColorMemo& memo, util::ThreadPool& pool,
                 std::vector<std::uint8_t>& intensities, hdc::HvBlock& hvs) {
  const std::size_t channels = color.config().channels;
  intensities.resize(refs.size());
  memo.of.assign(refs.size(), nullptr);
  for (std::size_t u = 0; u < refs.size(); ++u) {
    const auto& ref = refs[u];
    const std::uint32_t key = (static_cast<std::uint32_t>(ref.color[0]) << 16) |
                              (static_cast<std::uint32_t>(ref.color[1]) << 8) |
                              ref.color[2];
    auto it = memo.cache.find(key);
    if (it == memo.cache.end()) {
      it = memo.cache
               .emplace(key, color.encode(std::span<const std::uint8_t>(
                                 ref.color.data(), channels)))
               .first;
    }
    memo.of[u] = &it->second;
    intensities[u] =
        channels == 1 ? ref.color[0]
                      : img::luma(ref.color[0], ref.color[1], ref.color[2]);
  }
  hvs = hdc::HvBlock(color.config().dim, refs.size());
  pool.parallel_for(
      0, refs.size(),
      [&](std::size_t u) {
        const auto row = hvs.row(u);
        hdc::kernels::xor_words(row, position.row_hv(refs[u].y).words(),
                                position.col_hv(refs[u].x).words());
        hdc::kernels::xor_words(row, row, memo.of[u]->words());
      },
      /*grain=*/64);
  // Backstop for adversarial color churn (high-entropy RGB streams): cap
  // the memo by payload bytes, not entries, so the bound holds on edge
  // devices at any dim: ~8 MB of packed words per worker,
  // floored/ceilinged so small dims don't drown in node overhead and
  // large dims keep a useful working set. Checked once the bind is done
  // (no view into the memo is live), so an over-cap memo is not kept
  // between images.
  const std::size_t word_budget = (8u << 20) / sizeof(std::uint64_t);
  const std::size_t entry_cap = std::clamp<std::size_t>(
      word_budget / hdc::kernels::words_for_dim(color.config().dim), 1024,
      1u << 16);
  if (memo.cache.size() >= entry_cap) {
    memo.cache = {};
  }
}

}  // namespace

/// The immutable encoder state for one image geometry: the position and
/// color item memories. Construction order matters — the position
/// encoder consumes the seeded RNG stream first, then the color encoder,
/// exactly as the stateless `SegHdc::segment` path always has, so the
/// cached state reproduces its outputs bit for bit.
struct SegHdcSession::EncoderState {
  PositionEncoder position;
  ColorEncoder color;

  EncoderState(const SegHdcConfig& config, const img::ImageU8& image,
               util::Rng& rng)
      : position(
            PositionEncoderConfig{
                .dim = config.dim,
                .rows = image.height(),
                .cols = image.width(),
                .encoding = config.position_encoding,
                .alpha = config.alpha,
                .beta = config.beta,
                .flip_unit_basis = config.flip_unit_basis,
            },
            rng),
        color(
            ColorEncoderConfig{
                .dim = config.dim,
                .channels = image.channels(),
                .encoding = config.color_encoding,
                .gamma = config.gamma,
            },
            rng) {}
};

/// Reusable per-worker arena for encode: the band dedup tables, the
/// concatenated unique refs, and the memoised color HVs. The color memo
/// is keyed by encoder state and survives across images of the same
/// geometry, so a worker streaming similar frames stops re-deriving the
/// same HVs; the per-image containers are cleared (capacity retained)
/// between calls.
struct SegHdcSession::EncodeScratch {
  std::vector<Band> tiles;
  /// Global unique refs: every band's refs in band order.
  std::vector<UniqueRef> refs;
  /// Unique ratio (unique points / pixels) observed on the previous
  /// image through this arena; seeds the dedup-map reserves so low-dedup
  /// images (noise, photos) don't rehash repeatedly mid-scan. Starts at
  /// the old fixed 1/4 heuristic.
  double last_unique_ratio = 0.25;
  ColorMemo memo;
  const EncoderState* cached_state = nullptr;

  void begin_image(const EncoderState& state) {
    refs.clear();
    if (cached_state != &state) {
      memo.cache.clear();
      cached_state = &state;
    }
  }
};

/// Temporal cache for one ordered frame stream: the band layout (pinned
/// per geometry when the stream starts), whose bands in `scratch.tiles`
/// keep their dedup tables between frames, and the whole-stream state:
/// the previous frame (band reuse baseline + replay trigger), the
/// previous result (replay payload), and the previous centroids'
/// majority snapshots (warm K-Means seeds).
struct SegHdcSession::StreamState {
  std::uint64_t geometry = 0;  ///< geometry_key of the stream; 0 = none yet
  std::size_t tile_rows = 0;
  std::size_t tile_count = 0;
  img::ImageU8 prev_frame;
  bool has_prev = false;
  std::vector<hdc::HyperVector> prev_centroids;  ///< majority snapshots
  SegmentationResult prev_result;
  bool has_result = false;
  std::size_t frame_index = 0;
  EncodeScratch scratch;
  StreamFrameStats last_stats;

  void reset() {
    geometry = 0;
    tile_rows = 0;
    tile_count = 0;
    prev_frame = img::ImageU8();
    has_prev = false;
    prev_centroids.clear();
    prev_result = SegmentationResult();
    has_result = false;
    frame_index = 0;
    last_stats = StreamFrameStats();
    // The band tables are temporal history; the rest of scratch is kept:
    // its memoised color HVs are pure functions of the encoder state.
    scratch.tiles.clear();
  }
};

SegHdcSession::Stream::Stream() : impl_(std::make_unique<StreamState>()) {}
SegHdcSession::Stream::~Stream() = default;
SegHdcSession::Stream::Stream(Stream&&) noexcept = default;
SegHdcSession::Stream& SegHdcSession::Stream::operator=(Stream&&) noexcept =
    default;

void SegHdcSession::Stream::reset() { impl_->reset(); }

const StreamFrameStats& SegHdcSession::Stream::last_stats() const {
  return impl_->last_stats;
}

SegHdcSession::SegHdcSession(const SegHdcConfig& config,
                             const Options& options)
    : config_(config), pool_(options.pool) {
  config_.validate();
  // SEGHDC_TRACE opt-in (hard error on malformed values). Observational
  // only — results are bit-identical either way.
  obs::apply_trace_config();
  // Tile-rows resolution order: explicit config value, else the
  // SEGHDC_TILE_ROWS environment variable (read once here), else 0 =
  // auto-sized per image from the pool. Purely a performance knob —
  // outputs are bit-identical for every value.
  tile_rows_ = config_.tile_rows;
  if (tile_rows_ == 0) {
    const char* env = std::getenv("SEGHDC_TILE_ROWS");
    if (env != nullptr && *env != '\0') {
      // Malformed values are hard errors, like SEGHDC_KERNEL_BACKEND:
      // an override that silently fell back to auto would make a forced
      // CI tiling run meaningless. Require a plain digit string (no
      // sign, no whitespace — strtoull would skip both) and reject
      // overflow.
      errno = 0;
      char* end = nullptr;
      const unsigned long long value = std::strtoull(env, &end, 10);
      if (*env < '0' || *env > '9' || *end != '\0' || errno == ERANGE) {
        throw std::invalid_argument(
            std::string("SEGHDC_TILE_ROWS must be a non-negative "
                        "integer, got '") +
            env + "'");
      }
      tile_rows_ = static_cast<std::size_t>(value);
    }
  }
}

SegHdcSession::~SegHdcSession() = default;

SegHdcSession::Scratch::Scratch() : impl_(std::make_unique<EncodeScratch>()) {}
SegHdcSession::Scratch::~Scratch() = default;
SegHdcSession::Scratch::Scratch(Scratch&&) noexcept = default;
SegHdcSession::Scratch& SegHdcSession::Scratch::operator=(Scratch&&) noexcept =
    default;

std::size_t SegHdcSession::tile_rows_for(std::size_t height,
                                         std::size_t block,
                                         bool stream) const {
  std::size_t rows = height;
  if (tile_rows_ != 0) {
    // "Any value >= height means one band"; the clamp also keeps the
    // ceil-divisions below from wrapping on huge overrides.
    rows = std::min(tile_rows_, height);
  } else {
    const std::size_t threads =
        util::SerialScope::active() ? 1 : pool().thread_count();
    if (stream) {
      // Bands are the stream's reuse granularity: ~height/16 rows (finer
      // when the pool wants more parallelism), so a localized change
      // dirties a few bands even on a 1-thread pool.
      const std::size_t bands = std::max<std::size_t>(16, 4 * threads);
      rows = (height + bands - 1) / bands;
    } else if (threads > 1) {
      // ~4 bands per pool thread for load balance. One band when the
      // encode cannot fan out anyway — a single-thread pool, or a
      // segment_many worker whose inner loops are pinned serial.
      rows = (height + 4 * threads - 1) / (4 * threads);
    }
  }
  // Round up to whole position blocks. beta has no upper bound, so clamp
  // the block to the height first: a block taller than the image is one
  // band.
  block = std::min(block, height);
  return (rows + block - 1) / block * block;
}

util::ThreadPool& SegHdcSession::pool() const {
  return pool_ != nullptr ? *pool_ : util::ThreadPool::shared();
}

std::size_t SegHdcSession::encoder_states_built() const {
  const std::lock_guard<std::mutex> lock(states_mutex_);
  return states_.size();
}

const SegHdcSession::EncoderState& SegHdcSession::state_for(
    const img::ImageU8& image) const {
  const std::uint64_t key = geometry_key(image);
  {
    const std::lock_guard<std::mutex> lock(states_mutex_);
    const auto it = states_.find(key);
    if (it != states_.end()) {
      return *it->second;
    }
  }
  // Build outside the lock so distinct geometries construct in parallel;
  // a same-geometry race is resolved by try_emplace (one winner, the
  // loser's identical state is discarded).
  util::Rng rng(config_.seed);
  auto built = std::make_unique<EncoderState>(config_, image, rng);
  const std::lock_guard<std::mutex> lock(states_mutex_);
  const auto [it, inserted] = states_.try_emplace(key, std::move(built));
  return *it->second;
}

EncodedImage SegHdcSession::encode(const img::ImageU8& image) const {
  validate_image(image);
  std::unique_lock<std::mutex> lock(scratch_mutex_, std::try_to_lock);
  if (lock.owns_lock()) {
    return encode_impl(image, state_for(image), shared_scratch());
  }
  EncodeScratch scratch;
  return encode_impl(image, state_for(image), scratch);
}

EncodedImage SegHdcSession::encode(const img::ImageU8& image,
                                   Scratch& scratch) const {
  validate_image(image);
  return encode_impl(image, state_for(image), *scratch.impl_);
}

SegmentationResult SegHdcSession::segment(const img::ImageU8& image,
                                          Scratch& scratch) const {
  validate_image(image);
  return segment_impl(image, *scratch.impl_);
}

SegmentationResult SegHdcSession::cluster_and_finalize(
    EncodedImage&& encoded) const {
  util::expects(encoded.width > 0 && encoded.height > 0,
                "cluster_and_finalize needs a non-empty encode");
  util::expects(
      encoded.pixel_to_unique.size() == encoded.width * encoded.height,
      "cluster_and_finalize: pixel_to_unique does not cover the image");
  util::expects(encoded.unique_hvs.dim() == config_.dim,
                "cluster_and_finalize: encode dim != session config dim");
  return finalize_impl(std::move(encoded));
}

/// The session-owned scratch used by single-image segment()/encode()
/// calls, so a plain `for (image : stream) session.segment(image)` loop
/// keeps its memoised color HVs warm between frames. Callers
/// must hold scratch_mutex_; concurrent callers that lose the try_lock
/// fall back to a private scratch (identical output, cold caches).
SegHdcSession::EncodeScratch& SegHdcSession::shared_scratch() const {
  if (!shared_scratch_) {
    shared_scratch_ = std::make_unique<EncodeScratch>();
  }
  return *shared_scratch_;
}

EncodedImage SegHdcSession::encode_impl(const img::ImageU8& image,
                                        const EncoderState& state,
                                        EncodeScratch& scratch,
                                        const StreamState* stream,
                                        StreamFrameStats* stats) const {
  scratch.begin_image(state);

  EncodedImage encoded;
  encoded.width = image.width();
  encoded.height = image.height();
  encoded.pixel_to_unique.resize(image.pixel_count());

  // --- Pass 1: dedup keys, tiled into row bands of whole position
  // blocks. Each band builds its local key -> first-occurrence table in
  // parallel. A key names its row block, so no key occurs in two bands:
  // band t's global ids are its local ids plus the unique count of bands
  // 0..t-1, exactly the order a serial row-major scan assigns them —
  // labels are bit-identical at every thread count and tile size. A
  // stream frame tiles by the stream's pinned layout and rescans only
  // the bands whose bytes changed since the previous frame; an unchanged
  // band's table is what its rescan would build, so everything after the
  // scan is the same work either way. ---
  const std::size_t width = image.width();
  const std::size_t height = image.height();
  const std::size_t channels = image.channels();
  const std::size_t pixel_count = image.pixel_count();
  const std::size_t tile_rows =
      stream != nullptr
          ? stream->tile_rows
          : tile_rows_for(height, state.position.block_height(), false);
  const std::size_t tile_count = (height + tile_rows - 1) / tile_rows;
  const std::size_t shift = config_.color_quantization_shift;
  const double unique_ratio = scratch.last_unique_ratio;
  const std::span<std::uint32_t> pixel_ids(encoded.pixel_to_unique);
  if (scratch.tiles.size() < tile_count) {
    scratch.tiles.resize(tile_count);
  }
  const std::span<Band> bands = std::span(scratch.tiles).first(tile_count);
  std::atomic<std::size_t> reused{0};
  const auto band_ids = [&](std::size_t t) {
    const std::size_t begin = t * tile_rows * width;
    return pixel_ids.subspan(
        begin, std::min(pixel_count, begin + tile_rows * width) - begin);
  };
  // Band t only touches its own table and its own slice of
  // pixel_to_unique, which holds band-local IDs until the relabel. A
  // stream band scans into its own `local_ids` instead, so the next frame
  // can reuse them.
  pool().parallel_for(
      0, tile_count,
      [&](std::size_t t) {
        obs::SpanScope span("encode_band", "core", "band", t);
        Band& band = bands[t];
        const std::size_t y_begin = t * tile_rows;
        std::span<std::uint32_t> ids = band_ids(t);
        if (stream != nullptr) {
          // Reuse needs a hash match confirmed by an exact byte compare
          // against the previous frame: a collision must not be able to
          // corrupt labels.
          const std::size_t byte_begin = y_begin * width * channels;
          const std::size_t byte_count = ids.size() * channels;
          const std::uint8_t* bytes = image.data() + byte_begin;
          const std::uint64_t hash = fnv1a_bytes(bytes, byte_count);
          const bool reuse =
              band.valid && stream->has_prev && band.hash == hash &&
              std::memcmp(bytes, stream->prev_frame.data() + byte_begin,
                          byte_count) == 0;
          span.arg("reused", reuse ? 1 : 0);
          if (reuse) {
            ++reused;
            return;
          }
          band.hash = hash;
          band.valid = false;
          band.local_ids.resize(ids.size());
          ids = band.local_ids;
        }
        scan_band(image, state.position, shift, y_begin,
                  std::min(height, y_begin + tile_rows), unique_ratio, band,
                  ids);
        band.valid = true;
      },
      /*grain=*/1);
  // Band order is serial order: concatenate the tables and offset each
  // band's local ids by the uniques before it.
  auto& refs = scratch.refs;
  std::vector<std::uint32_t> first_id(tile_count);
  for (std::size_t t = 0; t < tile_count; ++t) {
    first_id[t] = static_cast<std::uint32_t>(refs.size());
    refs.insert(refs.end(), bands[t].refs.begin(), bands[t].refs.end());
    encoded.weights.insert(encoded.weights.end(), bands[t].weights.begin(),
                           bands[t].weights.end());
  }
  pool().parallel_for(
      0, tile_count,
      [&](std::size_t t) {
        const auto ids = band_ids(t);
        const std::span<const std::uint32_t> local =
            stream != nullptr ? bands[t].local_ids : ids;
        for (std::size_t i = 0; i < ids.size(); ++i) {
          ids[i] = local[i] + first_id[t];
        }
      },
      /*grain=*/1);
  // Images are validated non-empty, so pixel_count >= 1 here.
  scratch.last_unique_ratio =
      static_cast<double>(refs.size()) / static_cast<double>(pixel_count);
  if (stats != nullptr) {
    stats->tiles_total = tile_count;
    stats->tiles_reused = reused;
    stats->tiles_encoded = tile_count - stats->tiles_reused;
  }

  // --- Pass 2: bind the global uniques. ---
  bind_unique(refs, state.position, state.color, scratch.memo, pool(),
              encoded.intensities, encoded.unique_hvs);
  encoded.ops.bind_xor_bits +=
      static_cast<std::uint64_t>(refs.size()) * config_.dim;

  // Fault injection: corrupt the encoded pixel HVs at the configured
  // bit-error rate (models storing them in an approximate memory).
  if (config_.bit_error_rate > 0.0) {
    util::Rng fault_rng(config_.seed ^ 0xFA017ULL);
    for (std::size_t u = 0; u < encoded.unique_hvs.count(); ++u) {
      hdc::inject_bit_flips(encoded.unique_hvs.row(u), config_.dim,
                            config_.bit_error_rate, fault_rng);
    }
  }

  return encoded;
}

SegmentationResult SegHdcSession::segment(const img::ImageU8& image) const {
  validate_image(image);
  std::unique_lock<std::mutex> lock(scratch_mutex_, std::try_to_lock);
  if (lock.owns_lock()) {
    return segment_impl(image, shared_scratch());
  }
  EncodeScratch scratch;
  return segment_impl(image, scratch);
}

SegmentationResult SegHdcSession::segment_impl(const img::ImageU8& image,
                                               EncodeScratch& scratch) const {
  const util::Stopwatch total_watch;
  const util::Stopwatch encode_watch;
  EncodedImage encoded = encode_impl(image, state_for(image), scratch);
  const double encode_seconds = encode_watch.seconds();

  SegmentationResult result = finalize_impl(std::move(encoded));
  result.timings.encode_seconds = encode_seconds;
  result.timings.total_seconds = total_watch.seconds();
  return result;
}

SegmentationResult SegHdcSession::finalize_impl(EncodedImage encoded) const {
  return finalize_impl(std::move(encoded), FinalizeOptions{});
}

SegmentationResult SegHdcSession::finalize_impl(
    EncodedImage encoded, const FinalizeOptions& options) const {
  const util::Stopwatch finalize_watch;
  util::Stopwatch phase_watch;

  SegmentationResult result;
  result.clusters = config_.clusters;
  result.unique_points = encoded.unique_hvs.size();

  phase_watch.reset();
  const HvKMeans kmeans(HvKMeansConfig{
      .clusters = config_.clusters,
      .iterations = config_.iterations,
      .distance = config_.cluster_distance,
      .pool = pool_,
  });
  HvKMeansResult clustering;
  {
    obs::SpanScope span("kmeans", "core", "unique_points",
                        encoded.unique_hvs.size());
    if (!options.warm_centroids.empty()) {
      // Warm start (stream path): seed from the previous frame's majority
      // centroids — the seed-selection scan is skipped entirely.
      clustering = kmeans.run_from_centroids(encoded.unique_hvs,
                                             encoded.weights,
                                             options.warm_centroids);
      span.arg("warm", 1);
    } else {
      // Initial centroids: pixels with the largest color difference
      // (Section III-④).
      const auto seeds = largest_color_difference_seeds(
          encoded.intensities, config_.clusters);
      clustering = kmeans.run(encoded.unique_hvs, encoded.weights, seeds);
    }
  }
  result.timings.cluster_seconds = phase_watch.seconds();

  if (options.centroids_out != nullptr) {
    options.centroids_out->clear();
    options.centroids_out->reserve(clustering.centroids.size());
    for (const auto& centroid : clustering.centroids) {
      options.centroids_out->push_back(centroid.to_majority());
    }
  }

  // --- Label map + per-cluster pixel counts. ---
  {
    const obs::SpanScope label_span("label_map", "core");
    result.labels = img::LabelMap(encoded.width, encoded.height, 1, 0);
    result.cluster_pixel_counts.assign(config_.clusters, 0);
    for (std::size_t y = 0; y < encoded.height; ++y) {
      for (std::size_t x = 0; x < encoded.width; ++x) {
        const std::uint32_t unique =
            encoded.pixel_to_unique[y * encoded.width + x];
        const std::uint32_t label = clustering.assignment[unique];
        result.labels(x, y) = label;
        ++result.cluster_pixel_counts[label];
      }
    }
  }

  result.ops = encoded.ops + clustering.ops;

  // Optional confidence margins from the final centroids. Everything in
  // this block — norms, distances, and their op counts — exists only
  // when margins are requested; with compute_margins off the pipeline
  // performs (and reports) zero margin work and result.margins stays
  // empty.
  if (config_.compute_margins) {
    std::vector<float> unique_margin(encoded.unique_hvs.size(), 0.0F);
    std::vector<double> centroid_norm(clustering.centroids.size());
    // Same word-blocked cosine as the clusterer's assignment step: one
    // bit-plane snapshot per final centroid, then fused AND+popcount
    // passes per point (bit-identical dots, SIMD-dispatched).
    std::vector<hdc::kernels::CountPlanes> centroid_planes(
        clustering.centroids.size());
    for (std::size_t c = 0; c < clustering.centroids.size(); ++c) {
      centroid_norm[c] = clustering.centroids[c].norm();
      clustering.centroids[c].snapshot_planes(centroid_planes[c]);
    }
    pool().parallel_for(
        0, encoded.unique_hvs.size(),
        [&](std::size_t u) {
          const auto point = encoded.unique_hvs.row(u);
          const double point_norm = std::sqrt(
              static_cast<double>(encoded.unique_hvs.popcount(u)));
          double best = std::numeric_limits<double>::infinity();
          double second = std::numeric_limits<double>::infinity();
          for (std::size_t c = 0; c < clustering.centroids.size(); ++c) {
            const double d = hdc::kernels::cosine_distance_planes(
                centroid_planes[c], centroid_norm[c], point, point_norm);
            if (d < best) {
              second = best;
              best = d;
            } else if (d < second) {
              second = d;
            }
          }
          unique_margin[u] = static_cast<float>(second - best);
        },
        /*grain=*/64);
    result.margins = img::ImageF32(encoded.width, encoded.height, 1);
    for (std::size_t p = 0; p < encoded.pixel_to_unique.size(); ++p) {
      result.margins.pixels()[p] =
          unique_margin[encoded.pixel_to_unique[p]];
    }
    const auto unique = static_cast<std::uint64_t>(encoded.unique_hvs.size());
    result.ops.popcount_bits += unique * config_.dim;
    result.ops.dot_adds += unique * config_.clusters * config_.dim;
    result.ops.distance_evals += unique * config_.clusters;
  }

  result.iterations_run = clustering.iterations_run;
  result.converged = clustering.converged;
  result.paper_equivalent_ops = analytic_seghdc_ops(
      encoded.width * encoded.height, config_.dim, config_.clusters,
      config_.iterations);
  // Everything this function did — seeds, K-Means, label map, margins —
  // so stage drivers can compose encode + finalize into a true compute
  // total. cluster_seconds stays K-Means-only, matching the historical
  // phase split.
  result.timings.total_seconds = finalize_watch.seconds();
  return result;
}

StreamFrameResult SegHdcSession::segment_stream(const img::ImageU8& frame,
                                                Stream& stream) const {
  validate_image(frame);
  StreamState& s = *stream.impl_;
  const util::Stopwatch total_watch;

  const EncoderState& state = state_for(frame);
  const std::uint64_t geometry = geometry_key(frame);
  if (s.geometry != geometry) {
    // New stream, reset(), or mid-stream geometry change: drop all
    // temporal state and pin the band layout for this geometry. The
    // frame below runs the exact cold path.
    const std::size_t frame_index = s.frame_index;
    s.reset();
    s.frame_index = frame_index;
    s.geometry = geometry;
    s.tile_rows = tile_rows_for(frame.height(),
                                state.position.block_height(), true);
    s.tile_count = (frame.height() + s.tile_rows - 1) / s.tile_rows;
  }

  StreamFrameStats stats;
  stats.frame_index = s.frame_index;

  // Replay shortcut: segmentation is a pure function of (config, image),
  // so a frame byte-identical to its predecessor replays the cached
  // result — bit-for-bit equal labels with zero pipeline work.
  if (s.has_result && s.has_prev && frame == s.prev_frame) {
    const obs::SpanScope span("stream_replay", "stream", "frame",
                              s.frame_index);
    stats.warm = true;
    stats.replayed = true;
    stats.tiles_total = s.tile_count;
    stats.tiles_reused = stats.tiles_total;
    SegmentationResult result = s.prev_result;  // copy; cache stays armed
    result.ops = OpCounts{};  // honest: this frame performed no work
    result.timings = SegmentationTimings{};
    result.timings.total_seconds = total_watch.seconds();
    stats.seconds = result.timings.total_seconds;
    s.last_stats = stats;
    ++s.frame_index;
    return StreamFrameResult{std::move(result), stats};
  }

  const util::Stopwatch encode_watch;
  EncodedImage encoded = encode_impl(frame, state, s.scratch, &s, &stats);
  const double encode_seconds = encode_watch.seconds();

  FinalizeOptions options;
  std::vector<hdc::HyperVector> next_centroids;
  options.centroids_out = &next_centroids;
  if (!s.prev_centroids.empty()) {
    options.warm_centroids = s.prev_centroids;
    stats.warm = true;
  }
  SegmentationResult result = finalize_impl(std::move(encoded), options);
  result.timings.encode_seconds = encode_seconds;
  result.timings.total_seconds = total_watch.seconds();
  stats.kmeans_iterations = result.iterations_run;
  stats.converged = result.converged;

  s.prev_frame = frame;                          // next frame's baseline
  s.has_prev = true;
  s.prev_centroids = std::move(next_centroids);  // next frame's warm seeds
  s.prev_result = result;                        // next frame's replay
  s.has_result = true;
  stats.seconds = result.timings.total_seconds;
  s.last_stats = stats;
  ++s.frame_index;
  return StreamFrameResult{std::move(result), stats};
}

std::vector<SegmentationResult> SegHdcSession::segment_many(
    std::span<const img::ImageU8> images) const {
  // Collect via the streaming overload: each result is moved into its
  // slot the moment its image completes — no SegmentationResult (label
  // maps, margins, count vectors) is ever copied.
  std::vector<SegmentationResult> results(images.size());
  segment_many(images, [&results](std::size_t i, SegmentationResult&& r) {
    results[i] = std::move(r);
  });
  return results;
}

void SegHdcSession::segment_many(
    std::span<const img::ImageU8> images,
    const std::function<void(std::size_t, SegmentationResult&&)>& sink)
    const {
  if (images.empty()) {
    return;
  }
  // Validate everything and build the encoder state for every distinct
  // geometry up front, so the parallel section below only ever reads the
  // state cache.
  for (const auto& image : images) {
    validate_image(image);
    state_for(image);
  }

  util::ThreadPool& workers_pool = pool();
  const std::size_t workers =
      std::min(images.size(), workers_pool.thread_count());
  std::atomic<std::size_t> next{0};
  std::mutex sink_mutex;
  workers_pool.parallel_for(
      0, workers,
      [&](std::size_t) {
        // One scratch arena per worker; image-level sharding is the
        // parallelism, so the per-image inner loops run serially on this
        // worker instead of re-entering the pool.
        EncodeScratch scratch;
        const util::SerialScope serial;
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= images.size()) {
            return;
          }
          SegmentationResult result = segment_impl(images[i], scratch);
          // Hand off under the sink mutex so callers get serialised
          // invocations; the worker holds no result memory afterwards.
          const std::lock_guard<std::mutex> lock(sink_mutex);
          sink(i, std::move(result));
        }
      },
      /*grain=*/1);
}

}  // namespace seghdc::core
