#include "obs/profiler.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"

namespace dsa::obs {

namespace {

// Interned phase names: stable const char* per distinct name, never freed,
// so a sampler thread can dereference a frame pointer it read from another
// thread's live stack at any time. Phase names are a small fixed set of
// mostly string literals; the thread-local cache makes the steady-state
// intern one hash lookup with no lock and no allocation (its keys view the
// interned storage).
const char* intern_phase_name(std::string_view name) {
  static std::mutex mutex;
  static std::deque<std::string> storage;  // stable addresses
  static std::unordered_map<std::string_view, const char*> table;
  thread_local std::unordered_map<std::string_view, const char*> cache;

  if (const auto it = cache.find(name); it != cache.end()) {
    return it->second;
  }
  const char* interned = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex);
    if (const auto it = table.find(name); it != table.end()) {
      interned = it->second;
    } else {
      storage.emplace_back(name);
      interned = storage.back().c_str();
      table.emplace(storage.back(), interned);
    }
  }
  cache.emplace(std::string_view(interned, name.size()), interned);
  return interned;
}
}  // namespace

// One thread's live phase stack. The owner stores an interned frame, then
// publishes the new depth with release order; a sampler acquires the depth
// and reads at most that many frames. The owner never blocks on a sampler.
struct Profiler::ThreadState {
  std::atomic<std::uint32_t> live_depth{0};
  std::atomic<const char*> live_frames[Profiler::kMaxLiveDepth] = {};
};

struct Profiler::Impl {
  mutable std::mutex mutex;
  std::vector<std::unique_ptr<ThreadState>> states;
};

Profiler::Profiler() : impl_(new Impl) {}
Profiler::~Profiler() { delete impl_; }

Profiler& Profiler::global() {
  static Profiler instance;
  return instance;
}

Profiler::ThreadState& Profiler::local_state() {
  thread_local ThreadState* cached = nullptr;
  if (cached != nullptr) return *cached;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->states.push_back(std::make_unique<ThreadState>());
  cached = impl_->states.back().get();
  return *cached;
}

std::vector<std::string> Profiler::sample_live_stacks() const {
  std::vector<std::string> stacks;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (const auto& state : impl_->states) {
    const std::uint32_t depth = std::min<std::uint32_t>(
        state->live_depth.load(std::memory_order_acquire), kMaxLiveDepth);
    if (depth == 0) continue;
    std::string folded;
    for (std::uint32_t i = 0; i < depth; ++i) {
      const char* frame =
          state->live_frames[i].load(std::memory_order_relaxed);
      if (frame == nullptr) break;  // slot not yet published (racy enter)
      if (!folded.empty()) folded += ';';
      folded += frame;
    }
    if (!folded.empty()) stacks.push_back(std::move(folded));
  }
  return stacks;
}

ScopedPhase::ScopedPhase(std::string_view name) {
  if (!enabled()) return;
  Profiler::ThreadState& state = Profiler::global().local_state();
  state_ = &state;
  // Publish the frame for wall-clock samplers: store the interned name,
  // then the grown depth with release order so an acquiring reader never
  // sees the depth before the frame.
  const std::uint32_t depth =
      state.live_depth.load(std::memory_order_relaxed);
  if (depth < Profiler::kMaxLiveDepth) {
    state.live_frames[depth].store(intern_phase_name(name),
                                   std::memory_order_relaxed);
  }
  state.live_depth.store(depth + 1, std::memory_order_release);
  if (TraceSink::global().active()) {
    traced_ = true;
    start_ = std::chrono::steady_clock::now();
  }
}

ScopedPhase::~ScopedPhase() {
  if (state_ == nullptr) return;
  const std::uint32_t depth =
      state_->live_depth.load(std::memory_order_relaxed);
  if (traced_ && TraceSink::global().active()) {
    const auto end = std::chrono::steady_clock::now();
    // The slice is named by the open stack, outermost first: "a/b/c".
    std::string path;
    const std::uint32_t frames =
        std::min<std::uint32_t>(depth, Profiler::kMaxLiveDepth);
    for (std::uint32_t i = 0; i < frames; ++i) {
      if (i != 0) path += '/';
      path += state_->live_frames[i].load(std::memory_order_relaxed);
    }
    TraceSink::global().complete(path, start_, end);
  }
  state_->live_depth.store(depth - 1, std::memory_order_release);
}

}  // namespace dsa::obs
