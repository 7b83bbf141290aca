#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "e2e.hpp"
#include "uavdc/core/planning_context.hpp"
#include "uavdc/io/serialize.hpp"
#include "uavdc/workload/presets.hpp"

namespace e2e {

namespace core = uavdc::core;
namespace service = uavdc::service;
namespace workload = uavdc::workload;

namespace {

const std::array<const char*, 4> kPlanners = {"alg1", "alg2", "alg3",
                                              "benchmark"};

std::uint64_t splitmix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Seed of the i-th instance of a workload family; distinct tags keep the
/// families' instances unrelated under one workload seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t tag, std::uint64_t i) {
    return splitmix(splitmix(seed ^ (tag << 32)) + i);
}

/// Deterministic uniform index stream (portable, unlike std::*_distribution).
struct Picker {
    std::uint64_t state;
    std::size_t below(std::size_t n) {
        state = splitmix(state);
        return static_cast<std::size_t>(state % n);
    }
};

std::size_t add_instance(Workload& w, uavdc::model::Instance inst) {
    w.fingerprints.push_back(
        core::PlanningContext::instance_fingerprint(inst));
    w.instances.push_back(std::move(inst));
    return w.instances.size() - 1;
}

std::size_t add_key(Workload& w, std::size_t instance, std::string planner,
                    service::PlannerOverrides ov = {}) {
    w.keys.push_back({instance, std::move(planner), ov});
    return w.keys.size() - 1;
}

Request timed_request(const Workload& w, std::size_t key, bool duplicate,
                      bool inline_instance = false) {
    Request r;
    r.key = key;
    r.duplicate = duplicate;
    r.payload = request_payload(w, key, "t" + std::to_string(w.generated),
                                inline_instance);
    return r;
}

Request setup_request(const Workload& w, std::size_t key,
                      bool inline_instance) {
    Request r;
    r.key = key;
    r.payload = request_payload(w, key, "s" + std::to_string(key),
                                inline_instance);
    return r;
}

// warm-hits: 32 paper-preset instances x 4 planners, all primed; the timed
// phase only ever asks for a primed key, so every reply is a cache hit.
Workload warm_hits(std::uint64_t seed) {
    Workload w;
    w.name = "warm-hits";
    w.workers = 1;
    w.connections = 4;
    w.depth = 4;
    w.setups = 3;
    constexpr std::size_t kInstances = 32;
    for (std::size_t i = 0; i < kInstances; ++i) {
        add_instance(w, workload::generate(workload::paper_default(),
                                           derive(seed, 1, i)));
        for (const char* p : kPlanners) add_key(w, i, p);
    }
    for (std::size_t i = 0; i < kInstances; ++i) {
        w.setup.push_back(setup_request(w, i * kPlanners.size(), true));
    }
    for (std::size_t k = 0; k < w.keys.size(); ++k) {
        if (k % kPlanners.size() != 0) {
            w.setup.push_back(setup_request(w, k, false));
        }
    }
    w.collected_keys = w.keys.size();
    w.replay_requests = 4000;
    auto pick = std::make_shared<Picker>(Picker{derive(seed, 2, 0)});
    w.next = [pick](Workload& self) {
        return timed_request(self, pick->below(self.keys.size()), false);
    };
    return w;
}

// cold-missions: every request carries a never-seen instance. A fixed
// rotation over (family, planner, sparse side) keeps the request mix the
// same for every seed; the seed moves devices and volumes only.
Workload cold_missions(std::uint64_t seed) {
    Workload w;
    w.name = "cold-missions";
    w.workers = 2;
    w.connections = 2;
    w.depth = 1;
    w.setups = 25;  // set-up is a bare spawn (~3 ms) here: take many
    w.collected_keys = 96;  // one full rotation
    w.replay_requests = 96;
    w.next = [seed](Workload& self) {
        const std::size_t i = self.generated;
        const std::size_t family = i % 6;
        workload::GeneratorConfig cfg = workload::paper_default();
        constexpr std::array<int, 4> kUniformSizes = {80, 150, 300, 500};
        if (family < 4) {
            cfg.num_devices = kUniformSizes[family];
        } else if (family == 4) {
            cfg = workload::smart_city();
        } else {
            cfg.num_devices = 80;
            cfg.region_w = cfg.region_h =
                3000.0 + 1000.0 * static_cast<double>((i / 24) % 4);
        }
        const std::size_t inst =
            add_instance(self, workload::generate(cfg, derive(seed, 3, i)));
        const std::size_t key = add_key(self, inst,
                                        kPlanners[(i / 6) % kPlanners.size()]);
        return timed_request(self, key, false, true);
    };
    return w;
}

// what-if: a fixed fleet of 8 registered 300-500-device instances whose
// contexts exist; the timed phase sweeps options on them by reference,
// sends every new key on two connections back to back and repeats an
// earlier key in a third of its requests.
Workload what_if(std::uint64_t seed) {
    Workload w;
    w.name = "what-if";
    w.workers = 2;
    w.connections = 4;
    w.depth = 2;
    w.setups = 9;  // set-up plans 8 keys: cheap, so take more
    // The fleet does not depend on the seed: plan time varies more than
    // tenfold between same-size instances, so a fleet drawn per seed made
    // the seed, not the program, set the figures. The seed orders the
    // sweep and picks the repeats.
    constexpr std::uint64_t kFleetSeed = 1;
    constexpr std::array<int, 4> kSizes = {300, 367, 433, 500};
    for (std::size_t j = 0; j < 8; ++j) {
        workload::GeneratorConfig cfg = j % 2 == 0 ? workload::paper_default()
                                                   : workload::smart_city();
        cfg.num_devices = kSizes[j / 2];
        add_instance(w, workload::generate(cfg, derive(kFleetSeed, 4, j)));
        w.setup.push_back(setup_request(w, add_key(w, j, "alg2"), true));
    }

    // The option sweep (delta fixed, so every request reuses its instance's
    // context): planner; alg1 solver with GRASP/ILS restarts 1..64; alg3 k
    // 1/2/4; candidate reduction off, or on at coarsening 1..4 with a refine
    // band of 0..150 m (alg2/alg3). The grid is far larger than a run can
    // exhaust, so the request mix stays the same for the whole timed phase.
    std::vector<std::pair<std::string, service::PlannerOverrides>> combos;
    {
        service::PlannerOverrides greedy;
        greedy.solver = uavdc::orienteering::SolverKind::kGreedy;
        combos.emplace_back("alg1", greedy);
    }
    for (const auto solver : {uavdc::orienteering::SolverKind::kGrasp,
                              uavdc::orienteering::SolverKind::kIls}) {
        for (int iters = 1; iters <= 64; ++iters) {
            service::PlannerOverrides ov;
            ov.solver = solver;
            ov.grasp_iterations = iters;
            combos.emplace_back("alg1", ov);
        }
    }
    std::vector<service::PlannerOverrides> reductions(1);  // off
    for (int coarsen = 1; coarsen <= 4; ++coarsen) {
        for (int band = 0; band <= 150; band += 10) {
            service::PlannerOverrides ov;
            ov.reduce = true;
            ov.reduce_coarsen = coarsen;
            ov.reduce_band_m = band;
            reductions.push_back(ov);
        }
    }
    for (const auto& red : reductions) {
        // alg2 without reduction is the set-up key itself.
        if (red.reduce) combos.emplace_back("alg2", red);
        for (const int k : {1, 2, 4}) {
            service::PlannerOverrides a3 = red;
            a3.k = k;
            combos.emplace_back("alg3", a3);
        }
    }
    combos.emplace_back("benchmark", service::PlannerOverrides{});

    // New keys, in order: the n-th pair of the base sweep is (instance
    // n mod 8, combo base[n mod |combos|]) for a fixed permutation `base`
    // of the combos. The two moduli are coprime, so every pair comes once
    // and any stretch of the sweep mixes planners and instances alike. The
    // seed shuffles the pairs within consecutive blocks of kBlock, so every
    // seed plans the same pairs by the end of each block, in its own order:
    // a run's work then does not depend on which pairs its seed drew.
    if (std::gcd(w.instances.size(), combos.size()) != 1) {
        throw std::logic_error("what-if: instance and combo counts must be "
                               "coprime");
    }
    std::vector<std::size_t> base(combos.size());
    for (std::size_t c = 0; c < base.size(); ++c) base[c] = c;
    Picker fixed{0x5eedULL};
    for (std::size_t i = base.size(); i > 1; --i) {
        std::swap(base[i - 1], base[fixed.below(i)]);
    }
    const std::size_t pairs = w.instances.size() * combos.size();
    std::vector<std::pair<std::size_t, std::size_t>> sweep(pairs);
    for (std::size_t n = 0; n < pairs; ++n) {
        sweep[n] = {n % w.instances.size(), base[n % combos.size()]};
    }
    constexpr std::size_t kBlock = 32;
    Picker order{derive(seed, 5, 0)};
    for (std::size_t lo = 0; lo < pairs; lo += kBlock) {
        for (std::size_t i = std::min(pairs, lo + kBlock); i > lo + 1; --i) {
            std::swap(sweep[i - 1], sweep[lo + order.below(i - lo)]);
        }
    }
    w.collected_keys = w.instances.size() + 64;
    w.replay_requests = 192;  // 64 new keys, all planners
    auto pick = std::make_shared<Picker>(Picker{derive(seed, 6, 0)});
    auto cursor = std::make_shared<std::size_t>(0);  // new keys generated
    w.next = [sweep, combos, pick, cursor](Workload& self) {
        // Blocks of six: new, duplicate, new, duplicate, repeat, repeat.
        // A repeat revisits one of the last kRecent keys, which the response
        // cache (512 entries) still holds: with repeats drawn from every key
        // so far, more and more of them missed as the run went on, and
        // throughput fell over the timed phase.
        constexpr std::size_t kRecent = 128;
        const std::size_t slot = self.generated % 6;
        if (slot == 4 || slot == 5 || *cursor >= sweep.size()) {
            const std::size_t span = std::min(kRecent, self.keys.size());
            return timed_request(
                self, self.keys.size() - 1 - pick->below(span), false);
        }
        if (slot == 1 || slot == 3) {
            return timed_request(self, self.keys.size() - 1, true);
        }
        const auto [instance, combo] = sweep[(*cursor)++];
        const auto& [planner, overrides] = combos[combo];
        return timed_request(
            self, add_key(self, instance, planner, overrides), false);
    };
    return w;
}

}  // namespace

std::vector<std::string> workload_names() {
    return {"warm-hits", "cold-missions", "what-if"};
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
    if (name == "warm-hits") return warm_hits(seed);
    if (name == "cold-missions") return cold_missions(seed);
    if (name == "what-if") return what_if(seed);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string request_payload(const Workload& w, std::size_t key,
                            const std::string& id, bool inline_instance) {
    const KeySpec& k = w.keys[key];
    service::PlanRequest req;
    req.id = id;
    req.planner = k.planner;
    req.overrides = k.overrides;
    const auto& inst = w.instances[k.instance];
    if (inline_instance) {
        req.instance = inst;
    } else {
        req.instance_ref = w.fingerprints[k.instance];
    }
    return service::to_json(req).dump();
}

std::string size_bucket(const uavdc::model::Instance& inst) {
    if (inst.region.hi.x - inst.region.lo.x > 2000.0) return "sparse";
    return inst.num_devices() < 300 ? "small" : "paper";
}

void digest_update(std::uint64_t& h, const std::string& bytes) {
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
}

namespace {

bool find_number(const std::string& line, const char* key, double& out) {
    const std::size_t pos = line.find(key);
    if (pos == std::string::npos) return false;
    out = std::strtod(line.c_str() + pos + std::strlen(key), nullptr);
    return true;
}

}  // namespace

bool parse_envelope(const std::string& line, Envelope& env) {
    // Envelope keys are serialized sorted (cache_hit, error, exec_ms, id,
    // partial, queue_ms, result, status), so every key before `result` is
    // found at its first occurrence and `status` at its last.
    const std::size_t id = line.find("\"id\":\"");
    if (id == std::string::npos) return false;
    const std::size_t id_end = line.find('"', id + 6);
    env.id = line.substr(id + 6, id_end - id - 6);
    const std::size_t st = line.rfind(",\"status\":\"");
    if (st == std::string::npos) return false;
    env.status = line.substr(st + 11, line.find('"', st + 11) - st - 11);
    find_number(line, "\"exec_ms\":", env.exec_ms);
    find_number(line, "\"queue_ms\":", env.queue_ms);
    const std::size_t res = line.find(",\"result\":", id_end);
    env.result_pos = env.result_len = 0;
    if (res != std::string::npos && res < st) {
        env.result_pos = res + 10;
        env.result_len = st - env.result_pos;
    }
    return true;
}

void KeyReplies::add(const std::string& line, const Envelope& env) {
    const char* begin = line.data() + env.result_pos;
    for (const auto& r : results) {
        if (r.size() == env.result_len &&
            std::memcmp(r.data(), begin, env.result_len) == 0) {
            return;
        }
    }
    results.emplace_back(begin, env.result_len);
}

}  // namespace e2e
