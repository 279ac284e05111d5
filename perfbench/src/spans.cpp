#include "spans.hpp"

#include <cstdio>

namespace perfbench {

void SpanRecorder::reset(std::uint64_t sample_every, std::size_t max_records) {
  enabled_ = false;
  sample_every_ = sample_every == 0 ? 1 : sample_every;
  max_records_ = max_records;
  origin_ticks_ = paused_ticks_ = ticks();
  origin_time_ = paused_time_ = std::chrono::steady_clock::now();
  next_id_ = 1;
  dropped_ = 0;
  stack_.clear();
  records_.clear();
  records_.reserve(max_records_);
  for (Totals& t : totals_) {
    t.calls = 0;
    t.inclusive_ticks = 0;
    t.self_ticks = 0;
  }
}

void SpanRecorder::set_active(bool active) {
  if (enabled_ && !active) {
    paused_ticks_ = ticks();
    paused_time_ = std::chrono::steady_clock::now();
  }
  enabled_ = active;
}

std::uint32_t SpanRecorder::intern(std::string_view name) {
  for (std::size_t i = 0; i < totals_.size(); ++i) {
    if (totals_[i].name == name) return static_cast<std::uint32_t>(i);
  }
  totals_.push_back(Totals{std::string(name), 0, 0, 0});
  return static_cast<std::uint32_t>(totals_.size() - 1);
}

void SpanRecorder::push(std::uint32_t name, std::uint64_t seq) {
  stack_.push_back(Frame{name, ticks(), 0, next_id_++, seq});
}

void SpanRecorder::pop() {
  const std::int64_t end = ticks();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = end - frame.start;
  Totals& totals = totals_[frame.name];
  ++totals.calls;
  totals.inclusive_ticks += duration;
  totals.self_ticks += duration - frame.child;
  const std::uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
  if (!stack_.empty()) stack_.back().child += duration;

  const bool sampled = stack_.size() <= 1 ||
                       (frame.seq == kNoSeq ? frame.id : frame.seq) %
                               sample_every_ ==
                           0;
  if (!sampled) return;
  if (records_.size() >= max_records_) {
    ++dropped_;
    return;
  }
  records_.push_back(Record{frame.name, frame.start - origin_ticks_,
                            end - origin_ticks_, frame.id, parent, frame.seq});
}

double SpanRecorder::ns_per_tick() const {
  const bool live = enabled_;
  const auto end_time = live ? std::chrono::steady_clock::now() : paused_time_;
  const std::int64_t end_ticks = live ? ticks() : paused_ticks_;
  const double ns =
      std::chrono::duration<double, std::nano>(end_time - origin_time_).count();
  const auto elapsed = static_cast<double>(end_ticks - origin_ticks_);
  return elapsed > 0.0 ? ns / elapsed : 1.0;
}

double SpanRecorder::inclusive_ns(std::string_view name) const {
  for (const Totals& t : totals_) {
    if (t.name == name) {
      return static_cast<double>(t.inclusive_ticks) * ns_per_tick();
    }
  }
  return 0.0;
}

double SpanRecorder::layer_self_ns(std::string_view layer) const {
  std::int64_t total = 0;
  for (const Totals& t : totals_) {
    const std::string_view name = t.name;
    if (name.substr(0, name.find('.')) == layer) total += t.self_ticks;
  }
  return static_cast<double>(total) * ns_per_tick();
}

bool SpanRecorder::write_records(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) return false;
  const double scale = ns_per_tick();
  for (const Record& r : records_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start_ns\":%.0f,\"end_ns\":%.0f,"
                 "\"id\":%llu,\"parent\":%llu,\"seq\":",
                 totals_[r.name].name.c_str(),
                 static_cast<double>(r.start_ticks) * scale,
                 static_cast<double>(r.end_ticks) * scale,
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent));
    if (r.seq == kNoSeq) {
      std::fputs("null}\n", out);
    } else {
      std::fprintf(out, "%llu}\n", static_cast<unsigned long long>(r.seq));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
