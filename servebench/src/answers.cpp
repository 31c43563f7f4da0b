#include "answers.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bbs/api/engine.hpp"
#include "bbs/io/api_io.hpp"
#include "workloads.hpp"

namespace servebench {

namespace {

enum class Key {
  kOther,
  kKind,
  kId,
  kStatus,
  kError,
  kVerified,
  kFound,
  kFeasible,
  kObjective,
  kTotalBudget,
  kPeriod,
  kQueueMs,
  kSolveMs,
};

Key classify(std::string_view key) {
  if (key == "kind") return Key::kKind;
  if (key == "id") return Key::kId;
  if (key == "status") return Key::kStatus;
  if (key == "error") return Key::kError;
  if (key == "verified") return Key::kVerified;
  if (key == "found") return Key::kFound;
  if (key == "feasible") return Key::kFeasible;
  if (key == "objective_continuous") return Key::kObjective;
  if (key == "total_budget_continuous") return Key::kTotalBudget;
  if (key == "period") return Key::kPeriod;
  if (key == "queue_ms") return Key::kQueueMs;
  if (key == "solve_ms") return Key::kSolveMs;
  return Key::kOther;
}

/// Reads a JSON string starting at the opening quote; returns the index
/// past the closing quote. Escapes are kept verbatim (the fields compared
/// here never contain any).
std::size_t read_string(std::string_view s, std::size_t i,
                        std::string_view& out) {
  const std::size_t begin = i + 1;
  std::size_t j = begin;
  while (j < s.size() && s[j] != '"') j += (s[j] == '\\') ? 2 : 1;
  out = s.substr(begin, std::min(j, s.size()) - begin);
  return j + 1;
}

}  // namespace

bool scan_answer(std::string_view s, Answer& out) {
  out = Answer{};
  std::size_t i = 0;
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
  if (i >= s.size() || s[i] != '{') return false;

  Key pending = Key::kOther;
  bool have_key = false;
  std::string last_mapping_status;
  bool first_status = true;
  while (i < s.size()) {
    const char c = s[i];
    if (c == '"') {
      std::string_view text;
      i = read_string(s, i, text);
      std::size_t j = i;
      while (j < s.size() && s[j] == ' ') ++j;
      if (j < s.size() && s[j] == ':') {
        pending = classify(text);
        have_key = true;
        i = j + 1;
        continue;
      }
      if (have_key) {
        switch (pending) {
          case Key::kKind:
            if (out.kind.empty()) out.kind = std::string(text);
            break;
          case Key::kId:
            out.id = std::string(text);
            break;
          case Key::kStatus:
            if (first_status) {
              out.status = std::string(text);
              first_status = false;
            } else {
              last_mapping_status = std::string(text);
              out.discrete += text;
              out.discrete += ';';
            }
            break;
          case Key::kError:
            out.has_error = true;
            break;
          default:
            break;
        }
      }
      have_key = false;
      continue;
    }
    if (c == '{' || c == '[' || c == ',' || c == '}' || c == ']') {
      have_key = false;
      ++i;
      continue;
    }
    if (have_key && (c == 't' || c == 'f')) {
      const bool value = c == 't';
      if (pending == Key::kVerified || pending == Key::kFound ||
          pending == Key::kFeasible) {
        out.discrete += value ? "T;" : "F;";
      }
      if (pending == Key::kVerified && !value &&
          last_mapping_status == "optimal") {
        out.unverified = true;
      }
      have_key = false;
      i += value ? 4 : 5;
      continue;
    }
    if (have_key && (c == '-' || (c >= '0' && c <= '9'))) {
      char* end = nullptr;
      const double value = std::strtod(s.data() + i, &end);
      const auto used = static_cast<std::size_t>(end - (s.data() + i));
      switch (pending) {
        case Key::kObjective:
        case Key::kTotalBudget:
        case Key::kPeriod:
          out.numbers.push_back(value);
          break;
        case Key::kQueueMs:
          out.queue_ms = value;
          break;
        case Key::kSolveMs:
          out.solve_ms = value;
          break;
        default:
          break;
      }
      have_key = false;
      i += std::max<std::size_t>(used, 1);
      continue;
    }
    ++i;
  }
  return !out.status.empty();
}

const char* to_string(Failure failure) {
  switch (failure) {
    case Failure::kNone:
      return "none";
    case Failure::kError:
      return "error";
    case Failure::kUnverified:
      return "unverified";
    case Failure::kMismatch:
      return "mismatch";
    case Failure::kTimeout:
      return "timeout";
  }
  return "?";
}

Failure check_answer(const Answer& got, const Answer& reference,
                     Tally& tally) {
  if (got.has_error || got.status == "error") return Failure::kError;
  if (got.unverified) return Failure::kUnverified;
  if (got.status != reference.status || got.discrete != reference.discrete ||
      got.numbers.size() != reference.numbers.size()) {
    return Failure::kMismatch;
  }
  // The period a min_period bisection lands on depends on its probe
  // history (warm versus cold probes), so only its discrete fields are
  // compared; the numeric gap is tallied as divergence instead.
  const bool compare_numbers = reference.kind != "min_period";
  Failure verdict = Failure::kNone;
  bool divergent = false;
  for (std::size_t k = 0; k < got.numbers.size(); ++k) {
    const double a = got.numbers[k];
    const double b = reference.numbers[k];
    const double scale = std::max({std::abs(a), std::abs(b), 1e-3});
    const double dev = std::abs(a - b) / scale;
    if (!compare_numbers) {
      tally.max_divergence = std::max(tally.max_divergence, dev);
      divergent = divergent || dev > kRelTol;
      continue;
    }
    tally.max_rel_dev = std::max(tally.max_rel_dev, dev);
    if (dev > kRelTol) verdict = Failure::kMismatch;
  }
  if (divergent) ++tally.divergent;
  return verdict;
}

void Tally::add(Failure failure) {
  ++checked;
  ++by_reason[static_cast<int>(failure)];
  if (failure != Failure::kNone) ++failed;
}

References::References(const Workload& workload)
    : workload_(workload),
      answers_(workload.pool.size()),
      done_(workload.pool.size(), false) {}

void References::compute(const std::vector<std::uint32_t>& indices,
                         int threads) {
  std::vector<std::uint32_t> todo;
  std::vector<bool> queued(done_.size(), false);
  for (const std::uint32_t i : indices) {
    if (!done_[i] && !queued[i]) {
      queued[i] = true;
      todo.push_back(i);
    }
  }
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    bbs::api::EngineOptions options;
    options.max_pool_sessions = 0;
    bbs::api::Engine engine(options);
    for (std::size_t k = next.fetch_add(1); k < todo.size();
         k = next.fetch_add(1)) {
      const std::uint32_t i = todo[k];
      try {
        const std::string line = bbs::io::write_json_compact(
            bbs::io::response_to_json_value(engine.run(workload_.pool[i])));
        scan_answer(line, answers_[i]);
      } catch (const std::exception&) {
        answers_[i].status = "error";  // fails every comparison
        answers_[i].has_error = true;
      }
    }
  };
  const int n =
      std::max(1, std::min<int>(threads, static_cast<int>(todo.size())));
  std::vector<std::thread> pool;
  for (int t = 1; t < n; ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  for (const std::uint32_t i : todo) done_[i] = true;
}

const Answer& References::get(std::uint32_t index) {
  if (!done_[index]) compute({index}, 1);
  return answers_[index];
}

Failure Checker::check(std::uint32_t index, const Answer& answer) {
  if (!references_.has(index)) {
    deferred_.emplace_back(index, answer);
    return Failure::kNone;
  }
  return record(index, answer);
}

Failure Checker::record(std::uint32_t index, const Answer& answer) {
  const Answer& reference = references_.get(index);
  const Failure failure = check_answer(answer, reference, tally_);
  tally_.add(failure);
  if (failure != Failure::kNone && tally_.failed <= 3) {
    const auto render = [](const Answer& a) {
      std::string s = a.status + " " + a.discrete;
      for (const double v : a.numbers) {
        s += ' ';
        s += std::to_string(v);
      }
      return s;
    };
    std::fprintf(stderr, "servebench: q%u %s: got [%s] want [%s]\n", index,
                 to_string(failure), render(answer).c_str(),
                 render(reference).c_str());
  }
  return failure;
}

void Checker::resolve(int threads) {
  std::vector<std::uint32_t> indices;
  indices.reserve(deferred_.size());
  for (const auto& [index, answer] : deferred_) indices.push_back(index);
  references_.compute(indices, threads);
  for (const auto& [index, answer] : deferred_) record(index, answer);
  deferred_.clear();
}

}  // namespace servebench
