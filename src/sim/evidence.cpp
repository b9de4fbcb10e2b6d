#include "sim/evidence.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/error.h"
#include "exp/json_reader.h"
#include "exp/json_writer.h"

namespace tsajs::sim {

namespace {

/// Bit-exact double serialization: hexfloat, round-trips through strtod.
std::string hex_of(double x) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", x);
  return buffer;
}

std::string dec_of(std::uint64_t x) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64, x);
  return buffer;
}

double double_of(const exp::JsonValue& value) {
  const std::string& text = value.as_string();
  char* end = nullptr;
  const double x = std::strtod(text.c_str(), &end);
  TSAJS_REQUIRE(end != nullptr && *end == '\0' && end != text.c_str(),
                "malformed double in checkpoint: " + text);
  return x;
}

std::uint64_t u64_of(const exp::JsonValue& value) {
  const std::string& text = value.as_string();
  char* end = nullptr;
  const std::uint64_t x = std::strtoull(text.c_str(), &end, 10);
  TSAJS_REQUIRE(end != nullptr && *end == '\0' && end != text.c_str(),
                "malformed integer in checkpoint: " + text);
  return x;
}

void append_session(std::ostringstream& out, const SessionState& s) {
  out << "{\"id\":\"" << dec_of(s.id) << "\",\"x\":\"" << hex_of(s.x)
      << "\",\"y\":\"" << hex_of(s.y) << "\",\"input_bits\":\""
      << hex_of(s.input_bits) << "\",\"cycles\":\"" << hex_of(s.cycles)
      << "\",\"lifetime_s\":\"" << hex_of(s.lifetime_s)
      << "\",\"admit_time_s\":\"" << hex_of(s.admit_time_s)
      << "\",\"depart_time_s\":\"" << hex_of(s.depart_time_s)
      << "\",\"has_slot\":" << (s.has_slot ? "true" : "false")
      << ",\"server\":\"" << dec_of(s.server) << "\",\"subchannel\":\""
      << dec_of(s.subchannel)
      << "\",\"forwarded\":" << (s.forwarded ? "true" : "false") << "}";
}

SessionState session_of(const exp::JsonValue& value) {
  SessionState s;
  s.id = u64_of(value.at("id"));
  s.x = double_of(value.at("x"));
  s.y = double_of(value.at("y"));
  s.input_bits = double_of(value.at("input_bits"));
  s.cycles = double_of(value.at("cycles"));
  s.lifetime_s = double_of(value.at("lifetime_s"));
  s.admit_time_s = double_of(value.at("admit_time_s"));
  s.depart_time_s = double_of(value.at("depart_time_s"));
  s.has_slot = value.at("has_slot").as_bool();
  s.server = static_cast<std::size_t>(u64_of(value.at("server")));
  s.subchannel = static_cast<std::size_t>(u64_of(value.at("subchannel")));
  s.forwarded = value.at("forwarded").as_bool();
  return s;
}

constexpr const char* kCheckpointSchema = "tsajs-stream-checkpoint-v1";

constexpr std::string_view kCrcPrefix = "#crc32:";

/// Lands `content` at `path` all-or-nothing: write to `<path>.tmp`, fsync,
/// rename over the target, fsync the parent directory so the rename itself
/// is durable. A crash at any point leaves either the old file or the new
/// one — never a torn mixture.
void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  TSAJS_REQUIRE(fd >= 0, "cannot open temp file: " + tmp);
  std::size_t written = 0;
  while (written < content.size()) {
    const ::ssize_t n =
        ::write(fd, content.data() + written, content.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      TSAJS_REQUIRE(false, "write failed for temp file: " + tmp);
    }
    written += static_cast<std::size_t>(n);
  }
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  TSAJS_REQUIRE(synced, "fsync failed for temp file: " + tmp);
  TSAJS_REQUIRE(::rename(tmp.c_str(), path.c_str()) == 0,
                "cannot rename temp file into place: " + path);
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

[[nodiscard]] std::string read_file_or_throw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  TSAJS_REQUIRE(in.good(), "cannot read file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

std::string checkpoint_to_json(const StreamCheckpoint& cp) {
  std::ostringstream out;
  out << "{\n  \"schema\": \"" << kCheckpointSchema << "\",\n"
      << "  \"config_digest\": \"" << dec_of(cp.config_digest) << "\",\n"
      << "  \"seed\": \"" << dec_of(cp.seed) << "\",\n"
      << "  \"sim_time_s\": \"" << hex_of(cp.sim_time_s) << "\",\n"
      << "  \"next_arrival_index\": \"" << dec_of(cp.next_arrival_index)
      << "\",\n"
      << "  \"next_arrival_time_s\": \"" << hex_of(cp.next_arrival_time_s)
      << "\",\n"
      << "  \"decisions\": \"" << dec_of(cp.decisions) << "\",\n"
      << "  \"arrivals\": \"" << dec_of(cp.arrivals) << "\",\n"
      << "  \"admitted\": \"" << dec_of(cp.admitted) << "\",\n"
      << "  \"queued\": \"" << dec_of(cp.queued) << "\",\n"
      << "  \"promoted\": \"" << dec_of(cp.promoted) << "\",\n"
      << "  \"rejected\": \"" << dec_of(cp.rejected) << "\",\n"
      << "  \"departed\": \"" << dec_of(cp.departed) << "\",\n"
      << "  \"fault_steps\": \"" << dec_of(cp.fault_steps) << "\",\n"
      << "  \"checkpoints_emitted\": \"" << dec_of(cp.checkpoints_emitted)
      << "\",\n"
      << "  \"active\": [";
  for (std::size_t i = 0; i < cp.active.size(); ++i) {
    out << (i == 0 ? "" : ",") << "\n    ";
    append_session(out, cp.active[i]);
  }
  out << (cp.active.empty() ? "" : "\n  ") << "],\n  \"backlog\": [";
  for (std::size_t i = 0; i < cp.backlog.size(); ++i) {
    out << (i == 0 ? "" : ",") << "\n    ";
    append_session(out, cp.backlog[i]);
  }
  out << (cp.backlog.empty() ? "" : "\n  ") << "]\n}\n";
  return out.str();
}

StreamCheckpoint checkpoint_from_json(const std::string& text) {
  const exp::JsonValue doc = exp::parse_json(text);
  TSAJS_REQUIRE(doc.at("schema").as_string() == kCheckpointSchema,
                "not a stream checkpoint document");
  StreamCheckpoint cp;
  cp.config_digest = u64_of(doc.at("config_digest"));
  cp.seed = u64_of(doc.at("seed"));
  cp.sim_time_s = double_of(doc.at("sim_time_s"));
  cp.next_arrival_index = u64_of(doc.at("next_arrival_index"));
  cp.next_arrival_time_s = double_of(doc.at("next_arrival_time_s"));
  cp.decisions = u64_of(doc.at("decisions"));
  cp.arrivals = u64_of(doc.at("arrivals"));
  cp.admitted = u64_of(doc.at("admitted"));
  cp.queued = u64_of(doc.at("queued"));
  cp.promoted = u64_of(doc.at("promoted"));
  cp.rejected = u64_of(doc.at("rejected"));
  cp.departed = u64_of(doc.at("departed"));
  cp.fault_steps = u64_of(doc.at("fault_steps"));
  cp.checkpoints_emitted = u64_of(doc.at("checkpoints_emitted"));
  for (const auto& s : doc.at("active").as_array()) {
    cp.active.push_back(session_of(s));
  }
  for (const auto& s : doc.at("backlog").as_array()) {
    cp.backlog.push_back(session_of(s));
  }
  return cp;
}

void write_checkpoint_file(const std::string& path,
                           const StreamCheckpoint& cp) {
  std::string content = checkpoint_to_json(cp);
  char trailer[24];
  std::snprintf(trailer, sizeof(trailer), "%s%08x\n", kCrcPrefix.data(),
                crc32(content));
  content += trailer;
  write_file_atomic(path, content);
}

StreamCheckpoint read_checkpoint_file(const std::string& path) {
  const std::string text = read_file_or_throw(path);
  // The trailer is the final line; anything else means the file is torn or
  // predates the CRC protocol — refuse to load either.
  const std::size_t pos = text.rfind(kCrcPrefix);
  TSAJS_REQUIRE(pos != std::string::npos && pos > 0 && text[pos - 1] == '\n',
                "checkpoint has no CRC trailer: " + path);
  std::string_view hex(text);
  hex.remove_prefix(pos + kCrcPrefix.size());
  TSAJS_REQUIRE(!hex.empty() && hex.back() == '\n',
                "checkpoint CRC trailer is torn: " + path);
  hex.remove_suffix(1);
  TSAJS_REQUIRE(hex.size() == 8 &&
                    std::all_of(hex.begin(), hex.end(),
                                [](unsigned char c) {
                                  return std::isxdigit(c) != 0;
                                }),
                "checkpoint CRC trailer is malformed: " + path);
  const auto stored = static_cast<std::uint32_t>(
      std::strtoul(std::string(hex).c_str(), nullptr, 16));
  const std::string body = text.substr(0, pos);
  TSAJS_REQUIRE(crc32(body) == stored,
                "checkpoint CRC mismatch (corrupt or torn): " + path);
  return checkpoint_from_json(body);
}

std::string event_to_jsonl(const StreamEvent& event) {
  std::ostringstream out;
  out << "{\"e\":\"" << stream_event_name(event.type) << "\",\"t\":\""
      << hex_of(event.sim_time_s) << "\"";
  switch (event.type) {
    case StreamEventType::kArrival:
    case StreamEventType::kAdmit:
    case StreamEventType::kQueue:
    case StreamEventType::kReject:
    case StreamEventType::kPromote:
    case StreamEventType::kDepart:
      out << ",\"id\":" << event.session_id;
      break;
    default:
      break;
  }
  out << ",\"active\":" << event.active << ",\"backlog\":" << event.backlog;
  if (event.type == StreamEventType::kSolve) {
    out << ",\"decision\":" << event.decision
        << ",\"offloaded\":" << event.offloaded
        << ",\"forwarded\":" << event.forwarded
        << ",\"evaluations\":" << event.evaluations << ",\"utility\":\""
        << hex_of(event.utility) << "\"";
  } else if (event.type == StreamEventType::kFault) {
    out << ",\"servers_down\":" << event.servers_down
        << ",\"backhauls_down\":" << event.backhauls_down
        << ",\"slots_unavailable\":" << event.slots_unavailable;
    // Emitted only when nonzero so breaker-free logs stay byte-identical
    // to the pre-breaker format.
    if (event.breakers_open > 0) {
      out << ",\"breakers_open\":" << event.breakers_open;
    }
  } else if (event.type == StreamEventType::kCheckpoint) {
    out << ",\"ordinal\":" << event.checkpoint_ordinal;
  }
  out << "}";
  return out.str();
}

std::string detect_git_rev() {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path dir = fs::current_path(ec);
  if (ec) return "unknown";
  for (int depth = 0; depth < 16 && !dir.empty(); ++depth) {
    const fs::path head = dir / ".git" / "HEAD";
    if (fs::exists(head, ec) && !ec) {
      std::ifstream in(head);
      std::string line;
      if (!std::getline(in, line)) return "unknown";
      if (line.rfind("ref: ", 0) == 0) {
        std::ifstream ref(dir / ".git" / line.substr(5));
        std::string rev;
        if (std::getline(ref, rev) && !rev.empty()) return rev;
        return "unknown";
      }
      return line;
    }
    const fs::path parent = dir.parent_path();
    if (parent == dir) break;
    dir = parent;
  }
  return "unknown";
}

void EvidenceWriter::FileCloser::operator()(std::FILE* f) const noexcept {
  if (f != nullptr) std::fclose(f);
}

EvidenceWriter::EvidenceWriter(std::string dir, bool append)
    : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  TSAJS_REQUIRE(!ec, "cannot create evidence directory: " + dir_);
  events_.reset(
      std::fopen((dir_ + "/events.jsonl").c_str(), append ? "ab" : "wb"));
  TSAJS_REQUIRE(events_ != nullptr, "cannot open events.jsonl in " + dir_);
  const auto metrics_mode =
      append ? std::ios::out | std::ios::app : std::ios::out;
  metrics_.open(dir_ + "/metrics.csv", metrics_mode);
  TSAJS_REQUIRE(metrics_.good(), "cannot open metrics.csv in " + dir_);
  if (!append) {
    metrics_ << "decision,sim_time_s,active,backlog,offloaded,forwarded,"
                "utility,evaluations,solve_ms\n";
  }
}

void EvidenceWriter::write_run_json(const StreamConfig& config,
                                    std::size_t num_servers,
                                    std::size_t num_subchannels,
                                    std::uint64_t seed,
                                    const std::string& scheme) {
  std::ofstream out(dir_ + "/run.json");
  TSAJS_REQUIRE(out.good(), "cannot open run.json in " + dir_);
  char number[64];
  const auto put = [&](const char* key, double value, bool comma = true) {
    std::snprintf(number, sizeof(number), "%.17g", value);
    out << "    \"" << key << "\": " << number << (comma ? ",\n" : "\n");
  };
  out << "{\n  \"schema\": \"tsajs-stream-run-v1\",\n"
      << "  \"seed\": \"" << dec_of(seed) << "\",\n"
      << "  \"scheme\": \"" << exp::json_escape(scheme) << "\",\n"
      << "  \"git_rev\": \"" << exp::json_escape(detect_git_rev()) << "\",\n"
      << "  \"servers\": " << num_servers << ",\n"
      << "  \"subchannels\": " << num_subchannels << ",\n"
      << "  \"config\": {\n"
      << "    \"config_digest\": \"" << dec_of(config.digest()) << "\",\n";
  put("duration_s", config.duration_s);
  put("arrival_rate_hz", config.arrival_rate_hz);
  put("lifetime_min_s", config.lifetime_min_s);
  put("lifetime_max_s", config.lifetime_max_s);
  put("cloud_cpu_hz", config.cloud_cpu_hz);
  out << "    \"cloud_max_forwarded\": " << config.cloud_max_forwarded
      << ",\n";
  put("server_mtbf_epochs", config.fault.server_mtbf_epochs);
  put("server_mttr_epochs", config.fault.server_mttr_epochs);
  put("subchannel_blackout_prob", config.fault.subchannel_blackout_prob);
  put("backhaul_mtbf_epochs", config.fault.backhaul_mtbf_epochs);
  put("backhaul_mttr_epochs", config.fault.backhaul_mttr_epochs);
  put("fault_interval_s", config.fault_interval_s);
  out << "    \"budget_max_iterations\": "
      << config.decision_budget.max_iterations << ",\n";
  put("checkpoint_interval_s", config.checkpoint_interval_s);
  out << "    \"warm\": " << (config.warm ? "true" : "false") << ",\n"
      << "    \"max_backlog\": " << config.admission.max_backlog << "\n"
      << "  }\n}\n";
  TSAJS_REQUIRE(out.good(), "failed writing run.json in " + dir_);
}

void EvidenceWriter::on_event(const StreamEvent& event) {
  const std::string line = event_to_jsonl(event) + "\n";
  const std::size_t n =
      std::fwrite(line.data(), 1, line.size(), events_.get());
  TSAJS_REQUIRE(n == line.size(), "failed writing events.jsonl in " + dir_);
}

void EvidenceWriter::on_decision(const DecisionRecord& record) {
  char utility[64];
  std::snprintf(utility, sizeof(utility), "%.17g", record.utility);
  char solve_ms[64];
  std::snprintf(solve_ms, sizeof(solve_ms), "%.6f",
                record.solve_seconds * 1e3);
  char sim_time[64];
  std::snprintf(sim_time, sizeof(sim_time), "%.9g", record.sim_time_s);
  metrics_ << record.decision << "," << sim_time << "," << record.active
           << "," << record.backlog << "," << record.offloaded << ","
           << record.forwarded << "," << utility << ","
           << record.evaluations << "," << solve_ms << "\n";
}

void EvidenceWriter::on_checkpoint(const StreamCheckpoint& checkpoint) {
  // Durability barrier: the event log — which already holds this
  // checkpoint's own event line — must reach disk *before* the checkpoint
  // file becomes visible. That ordering is what lets prepare_recovery
  // trust any CRC-valid checkpoint it finds: the matching event line (and
  // every line before it) is guaranteed durable.
  TSAJS_REQUIRE(std::fflush(events_.get()) == 0,
                "failed flushing events.jsonl in " + dir_);
  TSAJS_REQUIRE(::fsync(::fileno(events_.get())) == 0,
                "failed syncing events.jsonl in " + dir_);
  metrics_.flush();
  last_checkpoint_path_ = dir_ + "/checkpoint-" +
                          dec_of(checkpoint.checkpoints_emitted) + ".json";
  write_checkpoint_file(last_checkpoint_path_, checkpoint);
}

void EvidenceWriter::finish(const StreamReport& report,
                            const std::string& scheme) {
  std::ofstream out(dir_ + "/summary.md");
  TSAJS_REQUIRE(out.good(), "cannot open summary.md in " + dir_);
  char buffer[128];
  out << "# Streaming soak summary\n\n";
  out << "- scheme: `" << scheme << "`\n";
  std::snprintf(buffer, sizeof(buffer), "%.1f", report.sim_time_s);
  out << "- simulated horizon: " << buffer << " s, decisions: "
      << report.decisions << ", fault steps: " << report.fault_steps
      << ", checkpoints: " << report.checkpoints << "\n";
  if (report.breaker_trips > 0 || report.breaker_half_opens > 0 ||
      report.breaker_closes > 0) {
    out << "- circuit breaker: " << report.breaker_trips << " trips, "
        << report.breaker_half_opens << " half-opens, "
        << report.breaker_closes << " closes\n";
  }
  out << "- arrivals: " << report.arrivals << " (admitted "
      << report.admitted << ", queued " << report.queued << ", promoted "
      << report.promoted << ", rejected " << report.rejected
      << "), departed: " << report.departed << "\n";
  std::snprintf(buffer, sizeof(buffer), "%.1f%% admitted, %.1f%% rejected",
                100.0 * report.admit_ratio(), 100.0 * report.reject_ratio());
  out << "- admission: " << buffer << "\n";
  std::snprintf(buffer, sizeof(buffer), "%.4g (min %.4g, max %.4g)",
                report.utility.mean(), report.utility.min(),
                report.utility.max());
  out << "- utility per decision: " << buffer << "\n";
  std::snprintf(buffer, sizeof(buffer),
                "p50 %.3f ms, p99 %.3f ms, mean %.3f ms",
                report.solve_p50.value() * 1e3,
                report.solve_p99.value() * 1e3,
                report.solve_seconds.mean() * 1e3);
  out << "- solve latency: " << buffer << "\n";
  std::snprintf(buffer, sizeof(buffer), "%.1f decisions/sec (%.2f s wall)",
                report.decisions_per_sec(), report.wall_seconds);
  out << "- throughput: " << buffer << "\n";
  std::snprintf(buffer, sizeof(buffer), "%.2f active, %.2f backlog",
                report.active_sessions.mean(), report.backlog_depth.mean());
  out << "- mean load at decision time: " << buffer << "\n";
  TSAJS_REQUIRE(out.good(), "failed writing summary.md in " + dir_);
  std::fflush(events_.get());
  metrics_.flush();
}

RecoveryInfo prepare_recovery(const std::string& run_dir) {
  namespace fs = std::filesystem;
  RecoveryInfo info;
  const std::string events_path = run_dir + "/events.jsonl";
  const std::string raw = read_file_or_throw(events_path);

  // Complete (newline-terminated) lines only; a torn final fragment is a
  // casualty of the crash and is dropped.
  std::vector<std::string_view> lines;
  std::size_t torn_tail = 0;
  std::vector<std::size_t> line_ends;  // byte offset just past each '\n'
  for (std::size_t pos = 0; pos < raw.size();) {
    const std::size_t nl = raw.find('\n', pos);
    if (nl == std::string::npos) {
      torn_tail = 1;
      break;
    }
    lines.emplace_back(raw.data() + pos, nl - pos);
    line_ends.push_back(nl + 1);
    pos = nl + 1;
  }

  // Enumerate checkpoint files, newest ordinal first.
  std::vector<std::pair<std::uint64_t, std::string>> candidates;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(run_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("checkpoint-", 0) != 0) continue;
    if (name.size() < 16 || name.substr(name.size() - 5) != ".json") continue;
    const std::string digits = name.substr(11, name.size() - 16);
    if (digits.empty() ||
        !std::all_of(digits.begin(), digits.end(), [](unsigned char c) {
          return std::isdigit(c) != 0;
        })) {
      continue;
    }
    candidates.emplace_back(std::strtoull(digits.c_str(), nullptr, 10),
                            entry.path().string());
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  std::size_t keep_lines = 0;  // no usable checkpoint => restart from t=0
  for (const auto& [ordinal, path] : candidates) {
    ++info.checkpoints_scanned;
    StreamCheckpoint cp;
    try {
      cp = read_checkpoint_file(path);
    } catch (const std::exception&) {
      ++info.checkpoints_skipped;
      continue;
    }
    // Locate this checkpoint's own event line; by the durability barrier
    // it must be on disk, so a missing line means the checkpoint belongs
    // to some other run's leftovers — skip it.
    const std::string needle =
        "\"ordinal\":" + dec_of(cp.checkpoints_emitted) + "}";
    bool found = false;
    for (std::size_t i = lines.size(); i-- > 0;) {
      if (lines[i].find("\"e\":\"checkpoint\"") != std::string_view::npos &&
          lines[i].size() >= needle.size() &&
          lines[i].substr(lines[i].size() - needle.size()) == needle) {
        found = true;
        keep_lines = i + 1;
        break;
      }
    }
    if (!found) {
      ++info.checkpoints_skipped;
      continue;
    }
    info.checkpoint_path = path;
    info.checkpoint = std::move(cp);
    break;
  }

  info.events_kept = keep_lines;
  info.events_dropped = lines.size() - keep_lines + torn_tail;
  const std::size_t keep_bytes = keep_lines == 0 ? 0 : line_ends[keep_lines - 1];
  if (keep_bytes != raw.size()) {
    write_file_atomic(events_path, raw.substr(0, keep_bytes));
  }

  // metrics.csv: header plus the decisions the checkpoint covers. The file
  // is not part of the replay identity, but rows past the checkpoint would
  // duplicate once the recovered run appends its own.
  const std::string metrics_path = run_dir + "/metrics.csv";
  constexpr const char* kMetricsHeader =
      "decision,sim_time_s,active,backlog,offloaded,forwarded,"
      "utility,evaluations,solve_ms\n";
  std::string metrics_raw;
  {
    std::ifstream in(metrics_path, std::ios::binary);
    if (in.good()) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      metrics_raw = buffer.str();
    }
  }
  std::string metrics_keep = kMetricsHeader;
  const std::uint64_t keep_rows =
      info.has_checkpoint() ? info.checkpoint.decisions : 0;
  if (metrics_raw.rfind(kMetricsHeader, 0) == 0) {
    std::size_t pos = std::strlen(kMetricsHeader);
    std::uint64_t rows = 0;
    while (rows < keep_rows && pos < metrics_raw.size()) {
      const std::size_t nl = metrics_raw.find('\n', pos);
      if (nl == std::string::npos) break;
      pos = nl + 1;
      ++rows;
    }
    metrics_keep = metrics_raw.substr(0, pos);
  }
  if (metrics_keep != metrics_raw) {
    write_file_atomic(metrics_path, metrics_keep);
  }
  return info;
}

StreamReport StreamDriver::recover(const algo::Scheduler& scheduler,
                                   const std::string& run_dir,
                                   RecoveryInfo* info_out) const {
  // Refuse a mismatched bundle *before* prepare_recovery mutates it. The
  // config digest covers the stream knobs only, so the grid and the scheme
  // are compared on their own.
  const exp::JsonValue run_doc = exp::parse_json_file(run_dir + "/run.json");
  const std::uint64_t seed = u64_of(run_doc.at("seed"));
  const std::string scheme = run_doc.at("scheme").as_string();
  TSAJS_REQUIRE(
      u64_of(run_doc.at("config").at("config_digest")) == config_.digest(),
      "run.json in " + run_dir + " was written under a different stream "
      "configuration; refusing to recover");
  const double servers = run_doc.at("servers").as_number();
  const double subchannels = run_doc.at("subchannels").as_number();
  char recorded[64];
  std::snprintf(recorded, sizeof(recorded), "%gx%g", servers, subchannels);
  TSAJS_REQUIRE(servers == static_cast<double>(num_servers()) &&
                    subchannels == static_cast<double>(num_subchannels()),
                "run.json in " + run_dir + " records a " + recorded +
                    " grid, not this driver's " + dec_of(num_servers()) +
                    "x" + dec_of(num_subchannels()) +
                    "; refusing to recover");
  TSAJS_REQUIRE(scheme == scheduler.name(),
                "run.json in " + run_dir + " was written by scheme '" +
                    scheme + "', not '" + scheduler.name() +
                    "'; refusing to recover");
  RecoveryInfo info = prepare_recovery(run_dir);
  EvidenceWriter evidence(run_dir, /*append=*/true);
  const StreamReport report =
      info.has_checkpoint() ? resume(scheduler, info.checkpoint, &evidence)
                            : run(scheduler, seed, &evidence);
  evidence.finish(report, scheme);
  if (info_out != nullptr) *info_out = info;
  return report;
}

}  // namespace tsajs::sim
