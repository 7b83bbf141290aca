#include "uavdc/lint/linter.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "uavdc/lint/include_graph.hpp"

namespace uavdc::lint {

namespace {

bool is_ident_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when `text[pos..pos+name.size())` equals `name` as a whole
/// identifier token (no identifier characters on either side).
bool token_at(const std::string& text, std::size_t pos,
              const std::string& name) {
    if (text.compare(pos, name.size(), name) != 0) return false;
    if (pos > 0 && is_ident_char(text[pos - 1])) return false;
    const std::size_t end = pos + name.size();
    if (end < text.size() && is_ident_char(text[end])) return false;
    return true;
}

bool has_token(const std::string& text, const std::string& name) {
    for (std::size_t pos = text.find(name); pos != std::string::npos;
         pos = text.find(name, pos + 1)) {
        if (token_at(text, pos, name)) return true;
    }
    return false;
}

/// True when the line contains identifier `name` directly invoked as a
/// function call: `name` token followed by optional whitespace and '('.
bool has_call(const std::string& text, const std::string& name) {
    for (std::size_t pos = text.find(name); pos != std::string::npos;
         pos = text.find(name, pos + 1)) {
        if (!token_at(text, pos, name)) continue;
        std::size_t after = pos + name.size();
        while (after < text.size() &&
               std::isspace(static_cast<unsigned char>(text[after])) != 0) {
            ++after;
        }
        if (after < text.size() && text[after] == '(') return true;
    }
    return false;
}

std::vector<std::string> path_components(const std::string& path) {
    std::vector<std::string> out;
    std::string cur;
    for (char c : path) {
        if (c == '/' || c == '\\') {
            if (!cur.empty()) out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty()) out.push_back(cur);
    return out;
}

bool has_component(const std::string& path, const std::string& name) {
    const auto comps = path_components(path);
    return std::find(comps.begin(), comps.end(), name) != comps.end();
}

std::string basename_of(const std::string& path) {
    const auto comps = path_components(path);
    return comps.empty() ? path : comps.back();
}

bool ends_with(const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_header(const std::string& path) {
    return ends_with(path, ".hpp") || ends_with(path, ".h");
}

/// Library code: anything under a src/ directory. std::cout and friends are
/// reserved for tools/bench/examples; the library reports through return
/// values and exceptions.
bool in_library(const std::string& path) { return has_component(path, "src"); }

/// Planner result paths: modules whose outputs are ordered artifacts (tours,
/// stop lists, comparisons) where unordered-container iteration order could
/// leak into results.
bool in_planner_paths(const std::string& path) {
    return in_library(path) &&
           (has_component(path, "core") || has_component(path, "graph") ||
            has_component(path, "orienteering"));
}

bool is_contracts_header(const std::string& path) {
    return basename_of(path) == "check.hpp";
}

/// Parses a NOLINT(...) suppression for `slug` out of a comment. Returns
/// 0 = no suppression, 1 = suppression with a reason (honour it),
/// 2 = suppression without a reason (reject it, but say why).
int suppression_state(const std::string& comment, const std::string& slug,
                      const std::string& marker) {
    std::size_t pos = comment.find(marker);
    if (pos == std::string::npos) return 0;
    pos += marker.size();
    if (pos >= comment.size() || comment[pos] != '(') return 0;
    const std::size_t close = comment.find(')', pos);
    if (close == std::string::npos) return 0;
    const std::string list = comment.substr(pos + 1, close - pos - 1);
    const bool names_rule = list.find("uavdc-" + slug) != std::string::npos ||
                            list.find(slug) != std::string::npos ||
                            list.find("uavdc-*") != std::string::npos;
    if (!names_rule) return 0;
    std::size_t rest = close + 1;
    while (rest < comment.size() &&
           std::isspace(static_cast<unsigned char>(comment[rest])) != 0) {
        ++rest;
    }
    if (rest < comment.size() && comment[rest] == ':') {
        ++rest;
        while (rest < comment.size() &&
               std::isspace(static_cast<unsigned char>(comment[rest])) != 0) {
            ++rest;
        }
        if (rest < comment.size()) return 1;
    }
    return 2;
}

}  // namespace

int suppression_for(const std::vector<ScannedLine>& lines,
                    std::size_t line_idx, const std::string& slug) {
    int state = suppression_state(lines[line_idx].comment, slug, "NOLINT");
    // NOLINTNEXTLINE in the comment block directly above; the scan crosses
    // comment-only lines so the reason may wrap.
    for (std::size_t up = line_idx; state == 0 && up > 0; --up) {
        const ScannedLine& above = lines[up - 1];
        std::string code = above.code;
        code.erase(0, code.find_first_not_of(" \t"));
        if (!code.empty()) break;  // not a pure comment line
        state = suppression_state(above.comment, slug, "NOLINTNEXTLINE");
        if (above.comment.empty()) break;
    }
    // Block suppression: the nearest NOLINTBEGIN(...) above wins unless a
    // NOLINTEND(...) naming the same rule closes it first.
    for (std::size_t up = line_idx; state == 0 && up > 0; --up) {
        const std::string& comment = lines[up - 1].comment;
        if (suppression_state(comment, slug, "NOLINTEND") != 0) break;
        state = suppression_state(comment, slug, "NOLINTBEGIN");
    }
    return state;
}

namespace {

struct RuleContext {
    const std::string& path;
    const std::vector<ScannedLine>& lines;
    std::vector<Finding>& findings;

    /// Reports a violation of (id, slug) at `line_idx` (0-based) unless a
    /// suppression names the rule and gives a reason (see suppression_for).
    void report(std::size_t line_idx, const std::string& id,
                const std::string& slug, const std::string& message) {
        const int state = suppression_for(lines, line_idx, slug);
        if (state == 1) return;
        std::string full = message;
        if (state == 2) {
            full += " (NOLINT suppression must carry a ': reason')";
        }
        findings.push_back(
            {path, static_cast<int>(line_idx) + 1, id, slug, full});
    }
};

const std::string kAssertToken = "assert";
const std::string kAbortToken = "abort";

void rule_no_raw_assert(RuleContext& ctx) {
    if (is_contracts_header(ctx.path)) return;
    for (std::size_t i = 0; i < ctx.lines.size(); ++i) {
        if (has_call(ctx.lines[i].code, kAssertToken)) {
            ctx.report(i, "UL001", "no-raw-assert",
                       "raw " + kAssertToken +
                           "() is compiled out in release builds; use "
                           "UAVDC_CHECK / UAVDC_DCHECK from "
                           "uavdc/util/check.hpp");
        }
    }
}

void rule_no_abort(RuleContext& ctx) {
    if (is_contracts_header(ctx.path)) return;
    for (std::size_t i = 0; i < ctx.lines.size(); ++i) {
        if (has_call(ctx.lines[i].code, kAbortToken)) {
            ctx.report(i, "UL002", "no-abort",
                       kAbortToken +
                           "() skips destructors and cannot be tested; raise "
                           "a ContractViolation via UAVDC_CHECK instead");
        }
    }
}

void rule_no_nondeterminism(RuleContext& ctx) {
    for (std::size_t i = 0; i < ctx.lines.size(); ++i) {
        const std::string& code = ctx.lines[i].code;
        std::string hit;
        if (has_token(code, "random_device")) {
            hit = "std::random_device";
        } else if (has_call(code, "rand") || has_call(code, "srand")) {
            hit = "rand()/srand()";
        } else if (has_call(code, "time")) {
            hit = "time()";
        }
        if (!hit.empty()) {
            ctx.report(i, "UL003", "no-nondeterminism",
                       hit +
                           " breaks seeded reproducibility; take an explicit "
                           "util::Rng or seed instead");
        }
    }
}

/// Same-line heuristic: names of variables declared as unordered_map /
/// unordered_set in this file.
std::vector<std::string> unordered_decl_names(
    const std::vector<ScannedLine>& lines) {
    std::vector<std::string> names;
    for (const auto& line : lines) {
        const std::string& code = line.code;
        for (const char* kind : {"unordered_map", "unordered_set"}) {
            std::size_t pos = code.find(kind);
            if (pos == std::string::npos) continue;
            std::size_t open = code.find('<', pos);
            if (open == std::string::npos) continue;
            int depth = 0;
            std::size_t close = open;
            for (; close < code.size(); ++close) {
                if (code[close] == '<') ++depth;
                if (code[close] == '>' && --depth == 0) break;
            }
            if (close >= code.size()) continue;
            std::size_t p = close + 1;
            while (p < code.size() &&
                   (std::isspace(static_cast<unsigned char>(code[p])) != 0 ||
                    code[p] == '&')) {
                ++p;
            }
            std::string name;
            while (p < code.size() && is_ident_char(code[p])) name += code[p++];
            if (!name.empty()) names.push_back(name);
        }
    }
    return names;
}

/// Extracts the container name of a same-line range-for, or "" if the line
/// holds none. For `for (auto& [k, v] : buckets)` this is "buckets"; member
/// accesses yield the final identifier.
std::string range_for_container(const std::string& code) {
    std::size_t pos = code.find("for");
    if (pos == std::string::npos || !token_at(code, pos, "for")) return "";
    std::size_t open = code.find('(', pos);
    if (open == std::string::npos) return "";
    int depth = 0;
    std::size_t colon = std::string::npos;
    std::size_t close = std::string::npos;
    for (std::size_t i = open; i < code.size(); ++i) {
        if (code[i] == '(') ++depth;
        if (code[i] == ')' && --depth == 0) {
            close = i;
            break;
        }
        if (code[i] == ':' && depth == 1) {
            if ((i > 0 && code[i - 1] == ':') ||
                (i + 1 < code.size() && code[i + 1] == ':')) {
                continue;  // scope resolution, not a range-for separator
            }
            colon = i;
        }
    }
    if (colon == std::string::npos || close == std::string::npos) return "";
    std::string name;
    for (std::size_t i = colon + 1; i < close; ++i) {
        if (is_ident_char(code[i])) {
            name += code[i];
        } else if (!name.empty() && code[i] != ' ') {
            name.clear();  // keep only the last identifier (after . or ->)
        }
    }
    return name;
}

bool sorted_nearby(const std::vector<ScannedLine>& lines, std::size_t from) {
    const std::size_t until = std::min(lines.size(), from + 40);
    for (std::size_t i = from; i < until; ++i) {
        const std::string& code = lines[i].code;
        if (has_call(code, "sort") || has_call(code, "stable_sort") ||
            has_call(code, "is_sorted")) {
            return true;
        }
    }
    return false;
}

void rule_unordered_iteration(RuleContext& ctx) {
    if (!in_planner_paths(ctx.path)) return;
    const auto names = unordered_decl_names(ctx.lines);
    if (names.empty()) return;
    for (std::size_t i = 0; i < ctx.lines.size(); ++i) {
        const std::string container = range_for_container(ctx.lines[i].code);
        if (container.empty()) continue;
        if (std::find(names.begin(), names.end(), container) == names.end()) {
            continue;
        }
        if (sorted_nearby(ctx.lines, i)) continue;
        ctx.report(i, "UL004", "unordered-iteration",
                   "iterating '" + container +
                       "' (unordered container) in a planner result path: "
                       "iteration order is unspecified and can leak into "
                       "output; sort the results or add "
                       "NOLINT(uavdc-unordered-iteration): <why order cannot "
                       "matter>");
    }
}

void rule_pragma_once(RuleContext& ctx) {
    if (!is_header(ctx.path)) return;
    for (std::size_t i = 0; i < ctx.lines.size(); ++i) {
        std::string code = ctx.lines[i].code;
        code.erase(0, code.find_first_not_of(" \t"));
        if (code.empty()) continue;
        if (code.rfind("#pragma once", 0) != 0) {
            ctx.report(i, "UL005", "pragma-once",
                       "headers must open with #pragma once before any other "
                       "code");
        }
        return;
    }
    // A header with no code at all still needs the guard.
    ctx.report(0, "UL005", "pragma-once",
               "headers must open with #pragma once before any other code");
}

void rule_no_cout_in_library(RuleContext& ctx) {
    if (!in_library(ctx.path)) return;
    for (std::size_t i = 0; i < ctx.lines.size(); ++i) {
        const std::string& code = ctx.lines[i].code;
        std::size_t pos = code.find("std::cout");
        if (pos != std::string::npos && token_at(code, pos + 5, "cout")) {
            ctx.report(i, "UL006", "no-cout-in-library",
                       "library code must not write to std::cout; return "
                       "data or use the io/ writers, printing belongs to "
                       "tools and benches");
        }
    }
}

/// Brace-depth loop tracking shared by UL007/UL009. Feed lines in order;
/// consume() returns true when the line is (heuristically) inside a loop —
/// a `for`/`while`/`do` header line, the two lines after an un-braced
/// header (covering brace-less bodies and wrapped headers), or any line of
/// a braced loop body.
class LoopScopes {
  public:
    bool consume(const std::string& code) {
        const bool loop_header = has_token(code, "for") ||
                                 has_token(code, "while") ||
                                 has_token(code, "do");
        const bool inside =
            loop_header || pending_ > 0 || !loop_depths_.empty();
        if (loop_header) pending_ = 2;
        for (const char c : code) {
            if (c == '{') {
                ++depth_;
                if (pending_ > 0) {
                    loop_depths_.push_back(depth_);
                    pending_ = 0;
                }
            } else if (c == '}') {
                while (!loop_depths_.empty() &&
                       loop_depths_.back() == depth_) {
                    loop_depths_.pop_back();
                }
                --depth_;
            }
        }
        if (!loop_header && pending_ > 0) --pending_;
        return inside;
    }

  private:
    int depth_ = 0;
    std::vector<int> loop_depths_;  // brace depths of open loop bodies
    int pending_ = 0;  // lines left of an un-braced loop header
};

/// UL007: building a DenseGraph::euclidean inside a loop in core/ planner
/// code is the O(n^2)-allocations-per-iteration pattern the incremental
/// scoring engine exists to avoid.
void rule_no_dense_rebuild_in_loop(RuleContext& ctx) {
    if (!in_library(ctx.path) || !has_component(ctx.path, "core")) return;
    LoopScopes loops;
    for (std::size_t i = 0; i < ctx.lines.size(); ++i) {
        const std::string& code = ctx.lines[i].code;
        const bool inside = loops.consume(code);
        if (inside &&
            code.find("DenseGraph::euclidean") != std::string::npos) {
            ctx.report(i, "UL007", "no-dense-rebuild-in-loop",
                       "DenseGraph::euclidean built inside a loop allocates "
                       "and refills an O(n^2) matrix every iteration; hoist "
                       "the graph, use PlanningContext::node_distance, or "
                       "annotate NOLINT(uavdc-no-dense-rebuild-in-loop): "
                       "<why per-iteration rebuild is required>");
        }
    }
}

/// UL009: per-element distance math inside loops in core/ planner code.
/// A loop that calls geom::distance / distance2 / std::sqrt / std::hypot
/// one element at a time runs scalar — the call boundary stops the
/// compiler from vectorizing the scan. Hot paths stream the
/// PlanningContext SoA mirrors through the batch kernels
/// (core/batch_kernels.hpp) instead; reference oracles and loops where a
/// batched form measured no faster stay scalar and carry a
/// NOLINT(uavdc-batched-distance): <reason>.
/// batch_kernels.* is exempt — it IS the blessed implementation.
void rule_batched_distance(RuleContext& ctx) {
    if (!in_library(ctx.path) || !has_component(ctx.path, "core")) return;
    const std::string base = basename_of(ctx.path);
    if (base == "batch_kernels.cpp" || base == "batch_kernels.hpp") return;
    LoopScopes loops;
    for (std::size_t i = 0; i < ctx.lines.size(); ++i) {
        const std::string& code = ctx.lines[i].code;
        if (!loops.consume(code)) continue;
        std::string hit;
        for (const char* fn : {"distance", "distance2", "sqrt", "hypot"}) {
            if (has_call(code, fn)) {
                hit = fn;
                break;
            }
        }
        if (hit.empty()) continue;
        ctx.report(i, "UL009", "batched-distance",
                   "per-element " + hit +
                       "() inside a candidate-scoring loop runs scalar; "
                       "stream the SoA arrays through the batch kernels "
                       "(kernels::squared_distances_to_point / "
                       "squared_insertion_lower_bounds) or "
                       "annotate NOLINT(uavdc-batched-distance): <why this "
                       "loop must stay scalar>");
    }
}

/// UL008: threading in the library flows through util::ThreadPool. A raw
/// std::thread outside util/ dodges the pool's deterministic shutdown (and
/// the service's drain barrier); a detach() anywhere abandons the thread
/// past teardown entirely, which no test or sanitizer run can wait out.
void rule_no_raw_thread(RuleContext& ctx) {
    if (!in_library(ctx.path)) return;
    const bool in_util = has_component(ctx.path, "util");
    for (std::size_t i = 0; i < ctx.lines.size(); ++i) {
        const std::string& code = ctx.lines[i].code;
        if (has_call(code, "detach")) {
            ctx.report(i, "UL008", "no-raw-thread",
                       "detach() abandons a thread with no join and no "
                       "deterministic teardown; keep threads joinable "
                       "(util::ThreadPool joins every worker on shutdown) or "
                       "annotate NOLINT(uavdc-no-raw-thread): <why the thread "
                       "must outlive its owner>");
            continue;
        }
        if (in_util) continue;  // the pool itself may own std::thread
        const std::size_t pos = code.find("std::thread");
        if (pos != std::string::npos && token_at(code, pos + 5, "thread")) {
            ctx.report(i, "UL008", "no-raw-thread",
                       "raw std::thread outside util/ bypasses the shared "
                       "ThreadPool's sizing and deterministic shutdown; "
                       "submit to util::ThreadPool / util::global_pool(), or "
                       "annotate NOLINT(uavdc-no-raw-thread): <why a "
                       "dedicated thread is required>");
        }
    }
}

/// UL010: every `#include "uavdc/<module>/..."` must respect the declared
/// layering table (include_graph.cpp). A file in module M may include
/// module N only when N is M itself or one of M's allowed dependencies —
/// in particular core/ may never reach service/, io/, or workload/.
void rule_layering(RuleContext& ctx) {
    const std::string from = module_of(ctx.path);
    if (from.empty()) return;
    for (const auto& inc : collect_includes(ctx.lines)) {
        const std::string to = module_of_include(inc.target);
        if (to.empty() || edge_allowed(from, to)) continue;
        ctx.report(static_cast<std::size_t>(inc.line - 1), "UL010",
                   "layering-violation",
                   "module '" + from + "' may not include \"" + inc.target +
                       "\" (module '" + to +
                       "'): the declared layering (DESIGN.md \"Module "
                       "layering\") forbids this edge; move the shared type "
                       "into a lower module or invert the dependency");
    }
}

/// True when the code plausibly touches floating-point values: a double /
/// float token, or a floating literal (digit run followed by '.' or an
/// exponent, not part of an identifier).
bool has_floating_hint(const std::string& code) {
    if (has_token(code, "double") || has_token(code, "float")) return true;
    for (std::size_t i = 0; i < code.size(); ++i) {
        if (std::isdigit(static_cast<unsigned char>(code[i])) == 0) continue;
        if (i > 0 && is_ident_char(code[i - 1])) {
            while (i + 1 < code.size() && is_ident_char(code[i + 1])) ++i;
            continue;  // digits inside an identifier like x2
        }
        std::size_t j = i;
        while (j < code.size() &&
               std::isdigit(static_cast<unsigned char>(code[j])) != 0) {
            ++j;
        }
        if (j < code.size() &&
            (code[j] == '.' || code[j] == 'e' || code[j] == 'E')) {
            return true;
        }
        i = j;
    }
    return false;
}

/// UL012: floating-point reductions in core/ must pair terms in a fixed
/// order. std::accumulate makes no pairing guarantee across
/// implementations, std::reduce and std::transform_reduce explicitly
/// permit arbitrary regrouping, and OpenMP reduction clauses combine
/// partial sums in thread-completion order — all of which let bitwise
/// results drift between runs or toolchains. Planner scores feed argmax
/// decisions, so a one-ulp drift can flip a tour.
void rule_fp_determinism(RuleContext& ctx) {
    if (!in_library(ctx.path) || !has_component(ctx.path, "core")) return;
    for (std::size_t i = 0; i < ctx.lines.size(); ++i) {
        const std::string& code = ctx.lines[i].code;
        if (code.find("#pragma") != std::string::npos &&
            has_token(code, "omp") &&
            code.find("reduction") != std::string::npos) {
            ctx.report(i, "UL012", "nondeterministic-fp-reduction",
                       "OpenMP reduction clauses combine partial sums in "
                       "thread-completion order; use the ordered "
                       "reductions in core/batch_kernels (fixed indexed "
                       "accumulation order) so results are bit-stable "
                       "across runs");
            continue;
        }
        std::string hit;
        for (const char* fn : {"accumulate", "reduce", "transform_reduce"}) {
            if (has_call(code, fn)) {
                hit = fn;
                break;
            }
        }
        if (hit.empty()) continue;
        bool floating = false;
        const std::size_t until = std::min(ctx.lines.size(), i + 3);
        for (std::size_t j = i; j < until && !floating; ++j) {
            floating = has_floating_hint(ctx.lines[j].code);
        }
        if (!floating) continue;
        ctx.report(i, "UL012", "nondeterministic-fp-reduction",
                   hit +
                       "() over floating-point values pairs terms in an "
                       "order the standard does not fix; write an explicit "
                       "indexed loop or use the ordered reductions in "
                       "core/batch_kernels, or annotate "
                       "NOLINT(uavdc-nondeterministic-fp-reduction): <why "
                       "pairing order cannot affect results>");
    }
}

/// Narrower-than-register integer targets a static_cast can silently
/// truncate into. Type text is normalized (whitespace stripped, leading
/// std:: removed) before lookup.
bool is_narrow_integer_type(std::string type) {
    type.erase(std::remove_if(type.begin(), type.end(),
                              [](unsigned char c) {
                                  return std::isspace(c) != 0;
                              }),
               type.end());
    if (type.rfind("std::", 0) == 0) type.erase(0, 5);
    static const char* const kNarrow[] = {
        "int",          "short",         "shortint",     "char",
        "signedchar",   "unsignedchar",  "unsigned",     "unsignedint",
        "unsignedshort", "unsignedshortint",
        "int8_t",       "int16_t",       "int32_t",      "uint8_t",
        "uint16_t",     "uint32_t",
    };
    for (const char* t : kNarrow) {
        if (type == t) return true;
    }
    return false;
}

/// UL013: a static_cast to a narrower integer type in core/ or service/
/// silently truncates out-of-range values (the CSR-offset bug class).
/// Sanctioned forms: util::checked_cast<T>() (range-checked via
/// std::in_range + UAVDC_CHECK), or an explicit UAVDC_CHECK / REQUIRE
/// guard within the surrounding lines, or a NOLINT with a reason.
void rule_unchecked_narrowing(RuleContext& ctx) {
    if (!in_library(ctx.path)) return;
    if (!has_component(ctx.path, "core") &&
        !has_component(ctx.path, "service")) {
        return;
    }
    for (std::size_t i = 0; i < ctx.lines.size(); ++i) {
        const std::string& code = ctx.lines[i].code;
        for (std::size_t pos = code.find("static_cast");
             pos != std::string::npos;
             pos = code.find("static_cast", pos + 1)) {
            if (!token_at(code, pos, "static_cast")) continue;
            std::size_t open = pos + 11;
            while (open < code.size() &&
                   std::isspace(static_cast<unsigned char>(code[open])) !=
                       0) {
                ++open;
            }
            if (open >= code.size() || code[open] != '<') continue;
            int depth = 0;
            std::size_t close = open;
            for (; close < code.size(); ++close) {
                if (code[close] == '<') ++depth;
                if (code[close] == '>' && --depth == 0) break;
            }
            if (close >= code.size()) continue;
            if (!is_narrow_integer_type(
                    code.substr(open + 1, close - open - 1))) {
                continue;
            }
            bool guarded = false;
            const std::size_t lo = i >= 4 ? i - 4 : 0;
            const std::size_t hi = std::min(ctx.lines.size(), i + 3);
            for (std::size_t j = lo; j < hi && !guarded; ++j) {
                const std::string& near = ctx.lines[j].code;
                guarded = has_token(near, "UAVDC_CHECK") ||
                          has_token(near, "UAVDC_DCHECK") ||
                          has_token(near, "UAVDC_REQUIRE") ||
                          has_token(near, "checked_cast") ||
                          has_token(near, "in_range");
            }
            if (guarded) break;
            ctx.report(i, "UL013", "unchecked-narrowing",
                       "static_cast to a narrow integer type silently "
                       "truncates out-of-range values; use "
                       "util::checked_cast<T>() (uavdc/util/check.hpp), "
                       "guard with UAVDC_CHECK in the surrounding lines, or "
                       "annotate NOLINT(uavdc-unchecked-narrowing): <why the "
                       "value provably fits>");
            break;  // one finding per line
        }
    }
}

/// True when some call to `name` on this line has its result fed directly
/// to a relational operator — `name(...) <op>` or `<op> name(...)` with
/// op in {<, <=, >, >=}. Shifts (`<<`, `>>`), arrows (`->`), and template
/// argument lists never match: after a closing paren a lone angle bracket
/// can only compare, and the backward scan skips the `geom::` / `std::`
/// qualifier before testing the operator.
bool call_result_compared(const std::string& code, const std::string& name) {
    for (std::size_t pos = code.find(name); pos != std::string::npos;
         pos = code.find(name, pos + 1)) {
        if (!token_at(code, pos, name)) continue;
        std::size_t open = pos + name.size();
        while (open < code.size() &&
               std::isspace(static_cast<unsigned char>(code[open])) != 0) {
            ++open;
        }
        if (open >= code.size() || code[open] != '(') continue;
        // Forward: `name(...)` followed by a relational operator.
        int depth = 0;
        std::size_t close = open;
        for (; close < code.size(); ++close) {
            if (code[close] == '(') ++depth;
            if (code[close] == ')' && --depth == 0) break;
        }
        if (close < code.size()) {
            std::size_t after = close + 1;
            while (after < code.size() &&
                   std::isspace(static_cast<unsigned char>(code[after])) !=
                       0) {
                ++after;
            }
            if (after < code.size() &&
                (code[after] == '<' || code[after] == '>') &&
                (after + 1 >= code.size() || code[after + 1] != code[after])) {
                return true;
            }
        }
        // Backward: a relational operator right before the qualified call.
        std::size_t begin = pos;
        while (begin > 0 &&
               (is_ident_char(code[begin - 1]) || code[begin - 1] == ':')) {
            --begin;
        }
        while (begin > 0 &&
               std::isspace(static_cast<unsigned char>(code[begin - 1])) !=
                   0) {
            --begin;
        }
        if (begin == 0) continue;
        const char prev = code[begin - 1];
        if (prev == '<' || prev == '>') {
            if (begin >= 2 && code[begin - 2] == prev) continue;    // shift
            if (begin >= 2 && prev == '>' && code[begin - 2] == '-') {
                continue;  // arrow
            }
            return true;
        }
        if (prev == '=' && begin >= 2 &&
            (code[begin - 2] == '<' || code[begin - 2] == '>')) {
            return true;
        }
    }
    return false;
}

/// UL014: a distance computed only to compare it. The result of
/// geom::distance / std::sqrt / std::hypot feeding a relational operator
/// directly pays a sqrt for a verdict the squared forms decide
/// bit-identically: sqrt is monotone, and fl(sqrt(fl(r*r))) == r for every
/// representable non-negative radius, so `distance(a, b) <= r` and
/// `distance2(a, b) <= r * r` always agree. Comparison sites should use
/// geom::distance2 / the squared batch kernels; genuinely metric uses
/// (accumulation, return values, sort keys) never trigger because only an
/// operator adjacent to the call matches. batch_kernels.* is exempt — it
/// implements both forms.
void rule_sqrt_compare(RuleContext& ctx) {
    if (!in_library(ctx.path) || !has_component(ctx.path, "core")) return;
    const std::string base = basename_of(ctx.path);
    if (base == "batch_kernels.cpp" || base == "batch_kernels.hpp") return;
    for (std::size_t i = 0; i < ctx.lines.size(); ++i) {
        const std::string& code = ctx.lines[i].code;
        std::string hit;
        for (const char* fn : {"distance", "sqrt", "hypot"}) {
            if (call_result_compared(code, fn)) {
                hit = fn;
                break;
            }
        }
        if (hit.empty()) continue;
        ctx.report(i, "UL014", "sqrt-compare",
                   hit +
                       "() result used only as a comparison operand pays a "
                       "sqrt the verdict does not need; compare "
                       "geom::distance2 against the squared "
                       "threshold (bit-identical: sqrt is monotone and "
                       "fl(sqrt(r*r)) == r) or annotate "
                       "NOLINT(uavdc-sqrt-compare): <why the exact metric "
                       "must be materialized here>");
    }
}

/// The socket-syscall family UL015 polices. Deliberately lexical: member
/// calls (`sock.read(...)`) and namespace-qualified calls (`std::bind`)
/// never match, only a bare or global-scope (`::read`) invocation does.
const char* const kSocketSyscalls[] = {
    "socket", "accept",  "accept4",    "bind",        "listen",
    "connect", "recv",   "recvfrom",   "send",        "sendto",
    "read",    "write",  "pipe",       "pipe2",       "poll",
    "select",  "setsockopt", "getsockopt", "getsockname", "getpeername",
};

/// The subset whose blocking forms return EINTR and therefore must sit in a
/// retry loop (or carry a reasoned NOLINT). Setup calls (socket, bind,
/// listen, setsockopt, ...) never block, and close(2) must NOT be retried,
/// so neither appears here.
const char* const kInterruptible[] = {
    "accept", "accept4", "connect", "recv", "recvfrom",
    "send",   "sendto",  "read",    "write", "poll",   "select",
};

/// True when some occurrence of `name` on this line is a *direct* call:
/// followed by '(', not a member access (`.name(` / `->name(`), and not
/// qualified by a named namespace (`std::name(`) — an explicit global-scope
/// `::name(` still counts.
bool has_direct_call(const std::string& code, const std::string& name) {
    for (std::size_t pos = code.find(name); pos != std::string::npos;
         pos = code.find(name, pos + 1)) {
        if (!token_at(code, pos, name)) continue;
        std::size_t after = pos + name.size();
        while (after < code.size() &&
               std::isspace(static_cast<unsigned char>(code[after])) != 0) {
            ++after;
        }
        if (after >= code.size() || code[after] != '(') continue;
        std::size_t before = pos;
        while (before > 0 &&
               std::isspace(static_cast<unsigned char>(code[before - 1])) !=
                   0) {
            --before;
        }
        if (before > 0) {
            const char prev = code[before - 1];
            if (prev == '.') continue;  // member call
            if (prev == '>' && before >= 2 && code[before - 2] == '-') {
                continue;  // member call via pointer
            }
            if (prev == ':' && before >= 2 && code[before - 2] == ':') {
                // Qualified. `::name(` at global scope is still the raw
                // syscall; `ns::name(` is some namespace's function.
                std::size_t q = before - 2;
                while (q > 0 && std::isspace(static_cast<unsigned char>(
                                    code[q - 1])) != 0) {
                    --q;
                }
                if (q > 0 && is_ident_char(code[q - 1])) continue;
            }
        }
        return true;
    }
    return false;
}

/// UL015: raw socket/byte-I/O syscalls live in net/ only, and the blocking
/// ones must retry EINTR. Outside net/, any direct call to the socket
/// syscall family bypasses the net::Socket wrappers that map errno into
/// IoStatus, apply MSG_NOSIGNAL, and retry EINTR — transports built on raw
/// calls re-grow exactly the interrupted-syscall bugs the wrapper exists to
/// bury. Inside net/, a direct call to an interruptible syscall without an
/// EINTR check in the surrounding lines is the same bug waiting locally
/// (signal handlers are installed without SA_RESTART on purpose, so every
/// blocking call in the process really does get interrupted).
void rule_no_raw_socket(RuleContext& ctx) {
    if (!in_library(ctx.path)) return;
    const bool in_net = has_component(ctx.path, "net");
    for (std::size_t i = 0; i < ctx.lines.size(); ++i) {
        const std::string& code = ctx.lines[i].code;
        std::string hit;
        if (in_net) {
            for (const char* fn : kInterruptible) {
                if (has_direct_call(code, fn)) {
                    hit = fn;
                    break;
                }
            }
            if (hit.empty()) continue;
            bool guarded = false;
            const std::size_t lo = i >= 4 ? i - 4 : 0;
            const std::size_t hi = std::min(ctx.lines.size(), i + 5);
            for (std::size_t j = lo; j < hi && !guarded; ++j) {
                guarded = has_token(ctx.lines[j].code, "EINTR");
            }
            if (guarded) continue;
            ctx.report(i, "UL015", "no-raw-socket",
                       "raw " + hit +
                           "() without an EINTR retry in the surrounding "
                           "lines: handlers are installed without SA_RESTART, "
                           "so blocking calls do get interrupted; loop while "
                           "errno == EINTR (see net/socket.cpp) or annotate "
                           "NOLINT(uavdc-no-raw-socket): <why one attempt is "
                           "correct>");
            continue;
        }
        for (const char* fn : kSocketSyscalls) {
            if (has_direct_call(code, fn)) {
                hit = fn;
                break;
            }
        }
        if (hit.empty()) continue;
        ctx.report(i, "UL015", "no-raw-socket",
                   "raw " + hit +
                       "() outside net/ bypasses the net::Socket wrappers "
                       "(EINTR retry, MSG_NOSIGNAL, errno -> IoStatus); use "
                       "net::Socket / net::poll_wait, or annotate "
                       "NOLINT(uavdc-no-raw-socket): <why this call cannot "
                       "go through net/>");
    }
}

}  // namespace

const std::vector<RuleInfo>& rules() {
    static const std::vector<RuleInfo> kRules = {
        {"UL001", "no-raw-assert",
         "no raw C assert() outside util/check.hpp; invariants use "
         "UAVDC_CHECK / UAVDC_DCHECK so they are testable and never silently "
         "compiled out"},
        {"UL002", "no-abort",
         "no abort() outside util/check.hpp; contract failures raise "
         "ContractViolation so callers and tests can observe them"},
        {"UL003", "no-nondeterminism",
         "no std::random_device / time() / rand() seeding; all randomness "
         "flows through seeded util::Rng for reproducible experiments"},
        {"UL004", "unordered-iteration",
         "no iteration over unordered_map/unordered_set in planner result "
         "paths unless results are sorted or the loop is annotated "
         "order-independent"},
        {"UL005", "pragma-once", "every header starts with #pragma once"},
        {"UL006", "no-cout-in-library",
         "no std::cout in library code (src/); stdout belongs to tools, "
         "benches, and examples"},
        {"UL007", "no-dense-rebuild-in-loop",
         "no DenseGraph::euclidean construction inside loops in core/ "
         "planner code; hoist the graph or use the PlanningContext distance "
         "matrix — per-iteration rebuilds are O(n^2) allocation churn"},
        {"UL008", "no-raw-thread",
         "no raw std::thread outside util/ and no detach() anywhere in the "
         "library; threads come from util::ThreadPool, which joins every "
         "worker on shutdown"},
        {"UL009", "batched-distance",
         "no per-element distance/sqrt/hypot calls inside candidate-scoring "
         "loops in core/; hot scans stream the PlanningContext SoA mirrors "
         "through core/batch_kernels — scalar loops (oracles, or sites "
         "where a batched form measured no faster) carry a "
         "NOLINT(uavdc-batched-distance) with a reason"},
        {"UL010", "layering-violation",
         "every include of uavdc/<module>/ must respect the declared "
         "layering table: a module may depend only on itself and the "
         "modules listed below it (core/ never reaches service/, io/, or "
         "workload/)"},
        {"UL011", "include-cycle",
         "the module-level include graph must stay acyclic; cycles are "
         "reported with the full module path and one representative include "
         "site per edge"},
        {"UL012", "nondeterministic-fp-reduction",
         "no std::accumulate/reduce/transform_reduce over floating-point "
         "values and no OpenMP reduction pragmas in core/; floating "
         "reductions use the ordered batch-kernel reductions or explicit "
         "indexed loops so planner scores are bit-stable"},
        {"UL013", "unchecked-narrowing",
         "no static_cast to a narrower integer type in core/ or service/ "
         "without util::checked_cast, a UAVDC_CHECK guard in the "
         "surrounding lines, or a NOLINT with a reason — silent truncation "
         "is the CSR-offset bug class"},
        {"UL014", "sqrt-compare",
         "no distance/sqrt/hypot result used only as a comparison operand "
         "in core/; ordering verdicts are decided bit-identically by the "
         "squared forms (geom::distance2, squared kernels), so comparison "
         "sites must defer the sqrt — sites that truly need the metric "
         "carry a NOLINT(uavdc-sqrt-compare) with a reason"},
        {"UL015", "no-raw-socket",
         "no raw socket/byte-I/O syscalls (socket, accept, read, write, "
         "send, recv, poll, ...) outside net/ — transports go through "
         "net::Socket, which retries EINTR, applies MSG_NOSIGNAL, and maps "
         "errno to IoStatus; inside net/, blocking syscalls must sit in an "
         "EINTR retry loop or carry a NOLINT(uavdc-no-raw-socket) with a "
         "reason"},
    };
    return kRules;
}

std::vector<ScannedLine> scan_lines(const std::string& contents) {
    enum class State {
        kCode,
        kLineComment,
        kBlockComment,
        kString,
        kChar,
        kRawString
    };
    std::vector<ScannedLine> lines;
    ScannedLine cur;
    State state = State::kCode;
    std::string raw_delim;  // for )delim" raw-string termination

    const auto flush_line = [&] {
        lines.push_back(std::move(cur));
        cur = ScannedLine{};
    };

    for (std::size_t i = 0; i < contents.size(); ++i) {
        const char c = contents[i];
        const char next = i + 1 < contents.size() ? contents[i + 1] : '\0';
        if (c == '\n') {
            // A // comment whose final character is a backslash splices the
            // next physical line into itself (phase-2 line continuation);
            // every other state simply persists across the newline. An
            // unterminated block comment or raw string at EOF drains
            // harmlessly: the loop ends and the last line is flushed.
            if (state == State::kLineComment &&
                (cur.comment.empty() || cur.comment.back() != '\\')) {
                state = State::kCode;
            }
            flush_line();
            continue;
        }
        switch (state) {
            case State::kCode:
                if (c == '/' && next == '/') {
                    state = State::kLineComment;
                    ++i;
                } else if (c == '/' && next == '*') {
                    state = State::kBlockComment;
                    ++i;
                } else if (c == 'R' && next == '"' &&
                           (i == 0 || !is_ident_char(contents[i - 1]))) {
                    // The raw-string delimiter must close on this line; if
                    // it does not, this is malformed input and the 'R' is
                    // treated as ordinary code rather than swallowing the
                    // rest of the file in a delimiter search.
                    const std::size_t eol = contents.find('\n', i);
                    const std::size_t open = contents.find('(', i + 2);
                    if (open == std::string::npos ||
                        (eol != std::string::npos && open > eol)) {
                        cur.code += c;
                        cur.raw += c;
                        break;
                    }
                    raw_delim =
                        ")" + contents.substr(i + 2, open - i - 2) + "\"";
                    cur.code += "\"\"";
                    cur.raw += contents.substr(i, open - i + 1);
                    i = open;
                    state = State::kRawString;
                } else if (c == '"') {
                    cur.code += '"';
                    cur.raw += '"';
                    state = State::kString;
                } else if (c == '\'' && i > 0 &&
                           !is_ident_char(contents[i - 1])) {
                    cur.code += '\'';
                    cur.raw += '\'';
                    state = State::kChar;
                } else {
                    cur.code += c;
                    cur.raw += c;
                }
                break;
            case State::kLineComment:
                cur.comment += c;
                break;
            case State::kBlockComment:
                if (c == '*' && next == '/') {
                    state = State::kCode;
                    ++i;
                } else {
                    cur.comment += c;
                }
                break;
            case State::kString:
            case State::kChar: {
                const char quote = state == State::kString ? '"' : '\'';
                if (c == '\\') {
                    // Never consume the newline of a backslash line splice:
                    // the '\n' handler above must see it so line numbers
                    // stay aligned with the file.
                    cur.raw += c;
                    if (next != '\n' && next != '\0') {
                        cur.raw += next;
                        ++i;
                    }
                } else if (c == quote) {
                    cur.code += quote;
                    cur.raw += quote;
                    state = State::kCode;
                } else {
                    cur.raw += c;
                }
                break;
            }
            case State::kRawString:
                if (contents.compare(i, raw_delim.size(), raw_delim) == 0) {
                    cur.raw += raw_delim;
                    i += raw_delim.size() - 1;
                    state = State::kCode;
                } else {
                    cur.raw += c;
                }
                break;
        }
    }
    flush_line();
    return lines;
}

std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& contents) {
    const auto lines = scan_lines(contents);
    std::vector<Finding> findings;
    RuleContext ctx{path, lines, findings};
    rule_no_raw_assert(ctx);
    rule_no_abort(ctx);
    rule_no_nondeterminism(ctx);
    rule_unordered_iteration(ctx);
    rule_pragma_once(ctx);
    rule_no_cout_in_library(ctx);
    rule_no_dense_rebuild_in_loop(ctx);
    rule_no_raw_thread(ctx);
    rule_batched_distance(ctx);
    rule_layering(ctx);
    rule_fp_determinism(ctx);
    rule_unchecked_narrowing(ctx);
    rule_sqrt_compare(ctx);
    rule_no_raw_socket(ctx);
    std::sort(findings.begin(), findings.end(),
              [](const Finding& a, const Finding& b) {
                  if (a.line != b.line) return a.line < b.line;
                  return a.id < b.id;
              });
    return findings;
}

std::vector<Finding> lint_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return {Finding{path, 0, "UL000", "unreadable-file",
                        "cannot open file for linting"}};
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return lint_source(path, buf.str());
}

std::vector<std::string> discover_files(
    const std::vector<std::string>& roots) {
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    // Explicit recursion with per-directory sorting: directory_iterator
    // order is filesystem-dependent, so every level is sorted before
    // descending. The final global sort merges multiple roots; together
    // they make discovery byte-identical across runs and machines.
    const std::function<void(const fs::path&)> walk =
        [&](const fs::path& dir) {
            std::vector<fs::path> entries;
            for (const auto& entry : fs::directory_iterator(
                     dir, fs::directory_options::skip_permission_denied)) {
                entries.push_back(entry.path());
            }
            std::sort(entries.begin(), entries.end(),
                      [](const fs::path& a, const fs::path& b) {
                          return a.generic_string() < b.generic_string();
                      });
            for (const auto& path : entries) {
                const std::string name = path.filename().string();
                if (fs::is_directory(path)) {
                    if (name.rfind("build", 0) == 0 ||
                        name.rfind('.', 0) == 0) {
                        continue;
                    }
                    walk(path);
                    continue;
                }
                if (!fs::is_regular_file(path)) continue;
                const std::string p = path.generic_string();
                if (ends_with(p, ".hpp") || ends_with(p, ".h") ||
                    ends_with(p, ".cpp") || ends_with(p, ".cc")) {
                    files.push_back(p);
                }
            }
        };
    for (const auto& root : roots) {
        if (!fs::exists(root)) continue;
        if (fs::is_regular_file(root)) {
            files.push_back(root);
            continue;
        }
        walk(root);
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
    return files;
}

std::vector<Finding> lint_tree(const std::vector<std::string>& roots) {
    std::vector<Finding> findings;
    for (const auto& f : discover_files(roots)) {
        auto fs_findings = lint_file(f);
        findings.insert(findings.end(),
                        std::make_move_iterator(fs_findings.begin()),
                        std::make_move_iterator(fs_findings.end()));
    }
    return findings;
}

std::string to_string(const Finding& f) {
    return f.file + ":" + std::to_string(f.line) + ": [" + f.id + " " +
           f.rule + "] " + f.message;
}

}  // namespace uavdc::lint
