// trace.hpp — the in-memory span recorder of perfbench's traced run.
//
// A span is (name, layer, start, end, parent span, flow id). Spans are
// recorded by the benchmark around its calls into each layer's public entry
// points — nothing inside the library is instrumented — kept in memory, and
// written out as JSON when the run ends. A span whose duration the library
// reported itself (EpsilonStats phase timers) is added with add_reported()
// and placed inside its parent; it is marked "reported" in the output.
//
// A layer's self time is the sum, over its spans, of each span's duration
// minus the part of it that its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::int64_t flow = 0;
    bool reported = false;
  };

  /// Opens a span as a child of the innermost open span.
  std::int32_t begin(std::string name, std::string layer, std::int64_t flow) {
    Span s;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.start_ns = now_ns();
    s.parent = open_.empty() ? -1 : open_.back();
    s.flow = flow;
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<std::int32_t>(spans_.size()) - 1);
    return open_.back();
  }

  void end(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  /// Adds a closed child of `parent` whose duration the library reported;
  /// it starts `offset_s` after the parent's start.
  void add_reported(std::int32_t parent, std::string name, std::string layer,
                    double offset_s, double seconds) {
    const Span& p = spans_[static_cast<std::size_t>(parent)];
    Span s;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.start_ns = p.start_ns + static_cast<std::int64_t>(offset_s * 1e9);
    s.end_ns = s.start_ns + static_cast<std::int64_t>(seconds * 1e9);
    s.parent = parent;
    s.flow = p.flow;
    s.reported = true;
    spans_.push_back(std::move(s));
  }

  const std::vector<Span>& spans() const { return spans_; }

  double seconds(std::int32_t id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  /// Self time per layer over the subtree rooted at `root`, the root's own
  /// self time included under its layer.
  std::map<std::string, double> self_by_layer(std::int32_t root) const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_s[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (!under(static_cast<std::int32_t>(i), root)) continue;
      out[spans_[i].layer] +=
          seconds(static_cast<std::int32_t>(i)) - child_s[i];
    }
    return out;
  }

  /// Writes every span as one JSON document.
  bool write_json(const std::string& path) const {
    std::ofstream os(path);
    os << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "  {\"id\": " << i << ", \"name\": \"" << s.name
         << "\", \"layer\": \"" << s.layer << "\", \"start_ns\": "
         << s.start_ns << ", \"end_ns\": " << s.end_ns
         << ", \"parent\": " << s.parent << ", \"flow\": " << s.flow
         << (s.reported ? ", \"reported\": true" : "") << "}"
         << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    return static_cast<bool>(os);
  }

 private:
  bool under(std::int32_t id, std::int32_t root) const {
    for (; id >= 0; id = spans_[static_cast<std::size_t>(id)].parent) {
      if (id == root) return true;
    }
    return false;
  }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a null tracer records nothing, so the untraced and traced
/// runs execute the same code.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, std::string name, std::string layer,
             std::int64_t flow = 0)
      : t_(t), id_(t ? t->begin(std::move(name), std::move(layer), flow) : -1) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int32_t id() const { return id_; }

 private:
  Tracer* t_;
  std::int32_t id_;
};

}  // namespace perfbench
