/**
 * @file
 * rcbench — one pass of one benchmark workload, run in a fresh
 * process so no process-wide cache (frontend, predecode) carries over
 * between passes.  rcbench/run.py orchestrates passes, checks their
 * outputs and turns them into metrics; see rcbench/README.md.
 *
 *   rcbench pass   --workload W --seed N [--jobs J]
 *       The untraced pass.  Workloads:
 *         paper_suite    every cell of figs 7-13, ablations A-C and
 *                        both extensions, figure by figure through
 *                        the resilient sweep executor (jobs = nproc)
 *         config_churn   the same cells, serial, capped at 2000
 *                        simulated cycles per point
 *         fuzz_campaign  fuzz::runCampaign (jobs = 1) then
 *                        fuzz::crossValidate over the admitted corpus
 *   rcbench replay --workload W --seed N [--trace-out FILE]
 *       The serial traced replay: the same work, issued through the
 *       layers' public calls one at a time, each call wrapped in a
 *       span.  Reports per-layer self time and counts.
 *   rcbench calibrate
 *       A fixed integer loop; its score fingerprints the host.
 *
 * Every subcommand prints one JSON object on stdout.  Exit codes:
 * 0 ok, 1 a correctness check failed, 2 usage.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hh"
#include "fuzz/campaign.hh"
#include "fuzz/xval.hh"
#include "harness/executor.hh"
#include "harness/experiment.hh"
#include "harness/predecode_cache.hh"
#include "harness/sweep.hh"
#include "pipeline/backend.hh"
#include "sim/sim_arena.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "trace/check.hh"

namespace
{

using namespace rcsim;
using Clock = std::chrono::steady_clock;

/** Simulated-cycle cap of one config_churn point. */
constexpr Cycle churnCycleCap = 2000;

/** fuzz_campaign shape: rounds x batch bank runs, then xval. */
constexpr int fuzzRounds = 6;
constexpr int fuzzBatch = 64;

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** steady_clock reading in seconds (CLOCK_MONOTONIC on Linux). */
double
monoNow()
{
    return std::chrono::duration<double>(
               Clock::now().time_since_epoch())
        .count();
}

/** CPU time of the whole process (all threads), in seconds. */
double
cpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
               1e6;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::uint64_t
fnv64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

// ------------------------------------------------------------------
// The paper-suite grid
// ------------------------------------------------------------------

/** One cell of a figure; `tag` marks the cells rc16_of_unlimited
 *  reads ("rc16" / "unl4" on fig8). */
struct Cell
{
    const workloads::Workload *workload = nullptr;
    harness::CompileOptions opts;
    const char *tag = "";
};

struct Figure
{
    std::string name;
    std::vector<Cell> cells;
};

// The figure benches' configuration shorthand.
using bench::paperCore;
using bench::unlimited;
using bench::withoutRc;
using bench::withRc;

/** The options Experiment::baselineCycles() compiles. */
harness::CompileOptions
baselineOptions()
{
    harness::CompileOptions o;
    o.level = opt::OptLevel::Scalar;
    o.rc = core::RcConfig::unlimited();
    o.machine = harness::Experiment::machineFor(1);
    return o;
}

/**
 * Every cell the figure benches under bench/ simulate, figure by
 * figure, in the benches' own order; cells repeated across figures
 * are kept.  Within a figure the order is shuffled by @p seed (the
 * executor's output is slot-indexed, so results do not depend on it).
 */
std::vector<Figure>
paperSuite(std::uint64_t seed)
{
    const auto &all = workloads::allWorkloads();
    const int int_cores[] = {8, 16, 24, 32, 64};
    const int fp_cores[] = {16, 32, 48, 64, 128};
    std::vector<Figure> figs;
    figs.reserve(12); // fig() hands out references into figs
    auto fig = [&](const char *name) -> std::vector<Cell> & {
        figs.push_back({name, {}});
        return figs.back().cells;
    };

    auto &f7 = fig("fig7");
    for (const auto &w : all)
        for (int width : {1, 2, 4, 8})
            f7.push_back({&w, unlimited(width)});

    auto &f8 = fig("fig8");
    for (const auto &w : all) {
        for (int i = 0; i < 5; ++i) {
            int core = w.isFp ? fp_cores[i] : int_cores[i];
            f8.push_back({&w, withoutRc(w, core, 4)});
            f8.push_back({&w, withRc(w, core, 4), i == 1 ? "rc16" : ""});
        }
        f8.push_back({&w, unlimited(4), "unl4"});
    }

    auto &f9 = fig("fig9");
    for (const auto &w : all) {
        f9.push_back({&w, unlimited(4)});
        for (int i = 0; i < 5; ++i) {
            int core = w.isFp ? fp_cores[i] : int_cores[i];
            f9.push_back({&w, withoutRc(w, core, 4)});
            f9.push_back({&w, withRc(w, core, 4)});
        }
    }

    for (int load_lat : {2, 4}) {
        auto &f = fig(load_lat == 2 ? "fig10" : "fig11");
        for (const auto &w : all)
            for (int width : {2, 4, 8}) {
                f.push_back({&w, withoutRc(w, paperCore(w), width,
                                           load_lat)});
                f.push_back({&w, withRc(w, paperCore(w), width,
                                        load_lat)});
                f.push_back({&w, unlimited(width, load_lat)});
            }
    }

    auto &f12 = fig("fig12");
    for (const auto &w : all) {
        for (int lat : {0, 1})
            for (bool stage : {false, true}) {
                harness::CompileOptions o = withRc(w, paperCore(w), 4);
                o.rc.connectLatency = lat;
                o.machine.lat.connectLatency = lat;
                o.rc.extraPipeStage = stage;
                f12.push_back({&w, o});
            }
        f12.push_back({&w, unlimited(4)});
    }

    auto &f13 = fig("fig13");
    for (int load_lat : {2, 4})
        for (const auto &w : all) {
            harness::CompileOptions b2 =
                withoutRc(w, paperCore(w), 4, load_lat);
            b2.machine.memChannels = 2;
            harness::CompileOptions b4 = b2;
            b4.machine.memChannels = 4;
            harness::CompileOptions r2 =
                withRc(w, paperCore(w), 4, load_lat);
            r2.machine.memChannels = 2;
            harness::CompileOptions u2 = unlimited(4, load_lat);
            u2.machine.memChannels = 2;
            for (const auto &o : {b2, b4, r2, u2})
                f13.push_back({&w, o});
        }

    auto &fa = fig("ablation_rc_models");
    for (const auto &w : all)
        for (core::RcModel m :
             {core::RcModel::NoReset, core::RcModel::WriteReset,
              core::RcModel::WriteResetReadUpdate,
              core::RcModel::ReadWriteReset}) {
            harness::CompileOptions o = withRc(w, paperCore(w, 8, 16), 4);
            o.rc.model = m;
            fa.push_back({&w, o});
        }

    auto &fb = fig("ablation_hoisting");
    for (const auto &w : all) {
        harness::CompileOptions on = withRc(w, paperCore(w, 8, 16), 4);
        harness::CompileOptions off = on;
        off.rc.hoistConnects = false;
        fb.push_back({&w, on});
        fb.push_back({&w, off});
    }

    auto &fc = fig("ablation_split_maps");
    for (const auto &w : all) {
        harness::CompileOptions split =
            withRc(w, paperCore(w, 8, 16), 4);
        split.rc.model = core::RcModel::NoReset;
        harness::CompileOptions unified = split;
        unified.rc.splitMaps = false;
        fc.push_back({&w, split});
        fc.push_back({&w, unified});
    }

    auto &fi = fig("extension_future_ilp");
    for (const auto &w : all)
        for (int aggressive : {0, 1})
            for (bool rc : {false, true}) {
                int core = paperCore(w, 32, 64);
                harness::CompileOptions o =
                    rc ? withRc(w, core, 8) : withoutRc(w, core, 8);
                o.ilp.maxUnroll = aggressive ? 64 : 16;
                o.ilp.maxBodyOps = aggressive ? 2400 : 560;
                fi.push_back({&w, o});
            }

    auto &fd = fig("extension_dynamic_overhead");
    for (const auto &w : all) {
        fd.push_back({&w, withoutRc(w, paperCore(w, 8, 16), 4)});
        fd.push_back({&w, withRc(w, paperCore(w, 8, 16), 4)});
    }

    SplitMix rng(seed);
    for (Figure &f : figs)
        for (std::size_t i = f.cells.size(); i > 1; --i)
            std::swap(f.cells[i - 1],
                      f.cells[rng.below(static_cast<std::uint32_t>(i))]);
    return figs;
}

/** Every input the backend consumes, as one string. */
std::string
backendKey(const std::string &workload, const harness::CompileOptions &o)
{
    const core::RcConfig &rc = o.rc;
    const sched::MachineModel &m = o.machine;
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "|%d|%d,%d,%llu|%d:%d/%d,%d/%d,m%d,c%d,s%d,p%d,h%d|"
                  "w%d,ch%d,l%d,x%d",
                  static_cast<int>(o.level), o.ilp.maxUnroll,
                  o.ilp.maxBodyOps,
                  static_cast<unsigned long long>(o.ilp.minWeight),
                  rc.enabled, rc.coreSize[0], rc.totalSize[0],
                  rc.coreSize[1], rc.totalSize[1],
                  static_cast<int>(rc.model), rc.connectLatency,
                  rc.extraPipeStage, rc.splitMaps, rc.hoistConnects,
                  m.issueWidth, m.memChannels, m.lat.loadLatency,
                  m.lat.connectLatency);
    return workload + buf;
}

/** Distinct (workload, level, ilp) frontends of a cell list. */
std::vector<Cell>
distinctFrontends(const std::vector<Cell> &cells)
{
    std::set<pipeline::FrontendKey> seen;
    std::vector<Cell> out;
    for (const Cell &c : cells)
        if (seen
                .insert(pipeline::FrontendKey::make(
                    *c.workload, c.opts.level, c.opts.ilp))
                .second)
            out.push_back(c);
    return out;
}

std::vector<Cell>
baselineCells()
{
    std::vector<Cell> out;
    for (const auto &w : workloads::allWorkloads())
        out.push_back({&w, baselineOptions()});
    return out;
}

std::vector<Cell>
flatten(const std::vector<Figure> &figs)
{
    std::vector<Cell> out;
    for (const Figure &f : figs)
        out.insert(out.end(), f.cells.begin(), f.cells.end());
    return out;
}

// ------------------------------------------------------------------
// Pass results
// ------------------------------------------------------------------

struct PassResult
{
    double readyMono = 0; // steady clock when the timed part began
    double setupInner = 0; // in-process set-up (frontend warm)
    Clock::time_point start; // of the timed part
    double wall = 0;         // timed part
    double cpu = 0;          // CPU time of the timed part
    std::uint64_t tasks = 0;
    std::uint64_t failed = 0;
    std::uint64_t capped = 0; // config_churn points at the cap
    std::uint64_t instructions = 0;
    std::uint64_t simCycles = 0;
    std::uint64_t codeSize = 0;
    // fig8 cycles per workload: with RC at 16/32 cores, unlimited.
    std::map<std::string, std::pair<Cycle, Cycle>> fig8;
    std::vector<std::string> errors;
    std::string extra; // workload-specific JSON members
};

/** Mark the start of a pass's timed part (set-up is over). */
void
startTimed(PassResult &r)
{
    r.readyMono = monoNow();
    r.cpu = -cpuNow();
    r.start = Clock::now();
}

void
stopTimed(PassResult &r)
{
    r.wall = seconds(r.start, Clock::now());
    r.cpu += cpuNow();
}

/**
 * fig8's with-RC geomean speedup at 16/32 cores over its unlimited
 * geomean; both share the baseline, so it cancels.  0 without fig8.
 */
double
rc16OfUnlimited(const PassResult &r)
{
    double logsum = 0;
    for (const auto &[name, cyc] : r.fig8) {
        if (!cyc.first || !cyc.second)
            return 0.0;
        logsum += std::log(static_cast<double>(cyc.second) /
                           static_cast<double>(cyc.first));
    }
    return r.fig8.empty()
               ? 0.0
               : std::exp(logsum / static_cast<double>(r.fig8.size()));
}

void
error(PassResult &r, std::string what)
{
    if (r.errors.size() < 20)
        r.errors.push_back(std::move(what));
}

std::string
cellName(const Cell &c)
{
    return c.workload->name + " " + c.opts.rc.toString() + " " +
           std::to_string(c.opts.machine.issueWidth) + "-issue";
}

/** Fold one sweep outcome into @p r; @p churn allows the cap. */
void
account(PassResult &r, const Cell &c, const harness::RunOutcome &o,
        bool churn)
{
    ++r.tasks;
    // Capped cycles are no figure's data.
    if (!churn && !std::strcmp(c.tag, "rc16"))
        r.fig8[c.workload->name].first = o.cycles;
    else if (!churn && !std::strcmp(c.tag, "unl4"))
        r.fig8[c.workload->name].second = o.cycles;
    r.simCycles += o.cycles;
    r.instructions += o.instructions;
    r.codeSize += o.compiled.staticSize;
    if (o.status == harness::RunStatus::Ok && o.verified &&
        o.cycles > 0)
        return;
    if (churn && o.status == harness::RunStatus::CycleLimit) {
        ++r.capped;
        return;
    }
    ++r.failed;
    error(r, cellName(c) + ": " + harness::toString(o.status) + " " +
                 o.error);
}

/** Warm the frontend cache for every distinct key of @p cells. */
double
warmFrontends(const std::vector<Cell> &cells, int jobs)
{
    std::vector<Cell> keys = distinctFrontends(cells);
    Clock::time_point t0 = Clock::now();
    harness::parallelFor(keys.size(), jobs, [&](std::size_t i) {
        pipeline::frontendCache().get(*keys[i].workload,
                                      keys[i].opts.level,
                                      keys[i].opts.ilp);
    });
    return seconds(t0, Clock::now());
}

/**
 * The figure benches' path (bench::parallelSpeedups): baselines
 * warmed on the worker pool, then the grid through the resilient
 * sweep executor over one shared Experiment.  The outcomes are kept
 * here, where parallelSpeedups reduces them to speedups.
 */
PassResult
runPaperSuite(std::uint64_t seed, int jobs)
{
    PassResult r;
    std::vector<Figure> figs = paperSuite(seed);
    std::vector<Cell> all = flatten(figs);
    std::vector<Cell> base = baselineCells();
    all.insert(all.end(), base.begin(), base.end());
    r.setupInner = warmFrontends(all, jobs);
    startTimed(r);

    harness::Experiment exp;
    for (const Figure &f : figs) {
        std::vector<const workloads::Workload *> unique;
        for (const Cell &c : f.cells)
            if (std::find(unique.begin(), unique.end(), c.workload) ==
                unique.end())
                unique.push_back(c.workload);
        harness::parallelFor(unique.size(), jobs, [&](std::size_t i) {
            exp.baselineCycles(*unique[i]);
        });

        std::vector<harness::SweepPoint> points(f.cells.size());
        for (std::size_t i = 0; i < f.cells.size(); ++i) {
            points[i].workload = f.cells[i].workload;
            points[i].opts = f.cells[i].opts;
        }
        harness::SweepOptions so;
        so.jobs = jobs;
        harness::SweepReport rep =
            harness::runSweepResilient(points, so);
        for (std::size_t i = 0; i < f.cells.size(); ++i)
            account(r, f.cells[i], rep.outcomes[i], false);
    }
    stopTimed(r);
    return r;
}

PassResult
runConfigChurn(std::uint64_t seed)
{
    PassResult r;
    std::vector<Cell> all = flatten(paperSuite(seed));
    r.setupInner = warmFrontends(all, 1);
    startTimed(r);

    std::vector<harness::SweepPoint> points(all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        points[i].workload = all[i].workload;
        points[i].opts = all[i].opts;
        points[i].maxCycles = churnCycleCap;
    }
    harness::SweepOptions so;
    so.jobs = 1;
    harness::SweepReport rep = harness::runSweepResilient(points, so);
    for (std::size_t i = 0; i < all.size(); ++i)
        account(r, all[i], rep.outcomes[i], true);
    stopTimed(r);
    return r;
}

/** Value of the unsigned JSON number after `"name":` at or past @p pos. */
std::uint64_t
numberField(const std::string &s, std::size_t pos, const char *name)
{
    std::string tag = std::string("\"") + name + "\":";
    std::size_t at = s.find(tag, pos);
    if (at == std::string::npos)
        return 0;
    return std::strtoull(s.c_str() + at + tag.size(), nullptr, 10);
}

fuzz::CampaignOptions
campaignOptions(std::uint64_t seed)
{
    fuzz::CampaignOptions co;
    co.seed = seed;
    co.rounds = fuzzRounds;
    co.batch = fuzzBatch;
    co.jobs = 1; // the rcfuzz default
    return co;
}

PassResult
runFuzzCampaign(std::uint64_t seed)
{
    PassResult r;
    startTimed(r);
    fuzz::CampaignReport rep = fuzz::runCampaign(campaignOptions(seed));

    // Per-task payloads in the summary: {"key":..,"status":..,
    // "pair":..,"cycles":N,"instructions":N,"static":N,...}.
    const std::string &s = rep.summaryJson;
    for (std::size_t at = s.find("{\"key\":\""); at != std::string::npos;
         at = s.find("{\"key\":\"", at + 1)) {
        ++r.tasks;
        std::size_t st = s.find("\"status\":\"", at);
        std::string status =
            st == std::string::npos
                ? ""
                : s.substr(st + 10, s.find('"', st + 10) - st - 10);
        r.simCycles += numberField(s, at, "cycles");
        r.instructions += numberField(s, at, "instructions");
        r.codeSize += numberField(s, at, "static");
        if (status != "ok") {
            ++r.failed;
            error(r, "bank verdict '" + status + "' at task " +
                         std::to_string(r.tasks - 1));
        }
    }
    if (r.tasks != static_cast<std::uint64_t>(fuzzRounds * fuzzBatch))
        error(r, "campaign summary lists " + std::to_string(r.tasks) +
                     " tasks");
    if (rep.exitCode != 0)
        error(r, "campaign exit code " + std::to_string(rep.exitCode));

    Count claims = 0, hits = 0, analysed = 0;
    std::size_t contradicted = 0;
    for (const fuzz::FuzzInput &in : rep.corpus) {
        fuzz::XvalReport xr = fuzz::crossValidate(in);
        ++r.tasks;
        claims += xr.claims;
        hits += xr.claimsHit;
        analysed += xr.instructions;
        if (xr.contradicted()) {
            ++contradicted;
            ++r.failed;
            error(r, "xval contradiction: " + xr.findings.front().kind +
                         " " + xr.findings.front().detail);
        }
    }
    stopTimed(r);

    char buf[256];
    std::snprintf(buf, sizeof buf,
                  ",\"summary_fnv\":\"%016llx\",\"admitted\":%zu,"
                  "\"features\":%zu,\"xval_claims\":%llu,"
                  "\"xval_claims_hit\":%llu,\"xval_instructions\":%llu,"
                  "\"xval_contradicted\":%zu",
                  static_cast<unsigned long long>(fnv64(s)),
                  rep.admitted, rep.features,
                  static_cast<unsigned long long>(claims),
                  static_cast<unsigned long long>(hits),
                  static_cast<unsigned long long>(analysed),
                  contradicted);
    r.extra = buf;
    return r;
}

std::string
passJson(const std::string &workload, std::uint64_t seed, int jobs,
         const PassResult &r)
{
    std::string j = "{\"workload\":" + json::str(workload);
    j += ",\"seed\":" + std::to_string(seed);
    j += ",\"jobs\":" + std::to_string(jobs);
    j += ",\"ready_mono\":" + num(r.readyMono);
    j += ",\"setup_inner_s\":" + num(r.setupInner);
    j += ",\"wall_s\":" + num(r.wall);
    j += ",\"cpu_s\":" + num(r.cpu);
    j += ",\"tasks\":" + std::to_string(r.tasks);
    j += ",\"failed\":" + std::to_string(r.failed);
    j += ",\"capped\":" + std::to_string(r.capped);
    j += ",\"instructions\":" + std::to_string(r.instructions);
    j += ",\"sim_cycles\":" + std::to_string(r.simCycles);
    j += ",\"code_size\":" + std::to_string(r.codeSize);
    j += ",\"peak_rss_mb\":" + num(peakRssMb());
    if (!r.fig8.empty()) {
        j += ",\"rc16_of_unlimited\":" + num(rc16OfUnlimited(r));
        j += ",\"rc16_cycles\":{";
        bool first = true;
        for (const auto &[name, cyc] : r.fig8) {
            j += (first ? "" : ",") + json::str(name) + ":" +
                 std::to_string(cyc.first);
            first = false;
        }
        j += "}";
    }
    j += r.extra;
    j += ",\"errors\":[";
    for (std::size_t i = 0; i < r.errors.size(); ++i)
        j += (i ? "," : "") + json::str(r.errors[i]);
    j += "]}";
    return j;
}

// ------------------------------------------------------------------
// The traced replay
// ------------------------------------------------------------------

/**
 * In-memory span recorder.  Spans nest strictly (one thread), so a
 * stack gives each span's self time: its duration minus the time its
 * children cover.  Events are kept as Chrome trace B/E pairs and
 * written out only when the replay ends.
 */
class Tracer
{
  public:
    Tracer() : t0_(Clock::now()) {}

    void
    begin(const char *name)
    {
        double now = us();
        stack_.push_back({name, now, 0.0});
        events_.push_back({name, 'B', now});
    }

    void
    end()
    {
        double now = us();
        Open o = stack_.back();
        stack_.pop_back();
        double dur = now - o.start;
        self_[o.name] += dur - o.children;
        ++calls_[o.name];
        if (!stack_.empty())
            stack_.back().children += dur;
        events_.push_back({o.name, 'E', now});
    }

    /** Time @p fn as one span named @p name. */
    template <typename Fn>
    decltype(auto)
    span(const char *name, Fn &&fn)
    {
        struct Guard
        {
            Tracer &t;
            ~Guard() { t.end(); }
        } guard{*this};
        begin(name);
        return fn();
    }

    double selfMs(const std::string &name) const
    {
        auto it = self_.find(name);
        return it == self_.end() ? 0.0 : it->second / 1000.0;
    }

    std::uint64_t calls(const std::string &name) const
    {
        auto it = calls_.find(name);
        return it == calls_.end() ? 0 : it->second;
    }

    const std::map<std::string, double> &selfUs() const { return self_; }

    std::string
    chromeJson() const
    {
        std::string j = "{\"traceEvents\":[";
        j += "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,"
             "\"pid\":1,\"tid\":1,\"args\":{\"name\":\"rcbench\"}}";
        char buf[160];
        for (const Event &e : events_) {
            std::snprintf(buf, sizeof buf,
                          ",{\"name\":\"%s\",\"cat\":\"rcbench\","
                          "\"ph\":\"%c\",\"ts\":%.3f,\"pid\":1,"
                          "\"tid\":1}",
                          e.name, e.ph, e.ts);
            j += buf;
        }
        j += "]}\n";
        return j;
    }

  private:
    struct Open
    {
        const char *name;
        double start;
        double children;
    };
    struct Event
    {
        const char *name;
        char ph;
        double ts;
    };

    double us() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         t0_)
            .count();
    }

    Clock::time_point t0_;
    std::vector<Open> stack_;
    std::vector<Event> events_;
    std::map<std::string, double> self_;
    std::map<std::string, std::uint64_t> calls_;
};

/** Span names that are benchmark glue, not a layer of the program. */
const char *const spanPass = "rcbench.pass";
const char *const spanCell = "rcbench.cell";

/** Accumulated per-layer counters of a replay. */
struct LayerCounts
{
    std::uint64_t backendCalls = 0;
    std::set<std::string> backendKeys;
    double allocateMs = 0, scheduleMs = 0, rewriteMs = 0, connectMs = 0;
    std::uint64_t predecodeCalls = 0, predecodeHits = 0;
    std::uint64_t simInstructions = 0, simCycles = 0;
    std::map<std::string, std::uint64_t> stats;
    std::uint64_t spillOps = 0, connectOps = 0, saveRestoreOps = 0;
    std::uint64_t frontendCalls = 0;
    // fuzz / analysis
    std::uint64_t bankRuns = 0, admitted = 0, features = 0;
    std::uint64_t xvalClaims = 0, xvalHits = 0, xvalInstructions = 0;
};

void
addPassReport(LayerCounts &lc, const pipeline::PassReport &rep)
{
    for (const pipeline::StageStats &st : rep.stages) {
        double ms = st.seconds * 1000.0;
        if (st.name == "allocate")
            lc.allocateMs += ms;
        else if (st.name == "schedule" || st.name == "prepass-schedule")
            lc.scheduleMs += ms;
        else if (st.name == "rewrite")
            lc.rewriteMs += ms;
        else if (st.name == "connect")
            lc.connectMs += ms;
    }
}

const char *const simStats[] = {
    "connects",          "stall_src",        "stall_dest_busy",
    "stall_mem_channel", "stall_map_update", "cycles_redirect"};

/**
 * One sweep point the way harness::runConfiguration issues it:
 * frontend (memo cache) -> backend -> predecode (process cache) ->
 * simulator from the arena -> run -> golden check.
 */
void
replayCell(Tracer &tr, LayerCounts &lc, sim::SimArena &arena,
           const Cell &c, Cycle max_cycles, PassResult &r)
{
    tr.span(spanCell, [&] {
        auto fe = tr.span("pipeline.frontend", [&] {
            return pipeline::frontendCache().get(*c.workload, c.opts.level,
                                                 c.opts.ilp);
        });
        ++lc.frontendCalls;

        pipeline::PassReport prep;
        pipeline::CompiledProgram cp = tr.span("pipeline.backend", [&] {
            return pipeline::runBackend(*fe, c.opts, &prep);
        });
        ++lc.backendCalls;
        lc.backendKeys.insert(backendKey(c.workload->name, c.opts));
        addPassReport(lc, prep);
        lc.spillOps += cp.spillOps;
        lc.connectOps += cp.connectOps;
        lc.saveRestoreOps += cp.saveRestoreOps;

        sim::SimConfig sc;
        sc.machine = c.opts.machine;
        sc.rc = c.opts.rc;
        if (max_cycles > 0)
            sc.maxCycles = max_cycles;
        std::size_t before = harness::predecodeCacheSize();
        auto pd = tr.span("harness.predecode", [&] {
            return harness::cachedPredecode(cp.program, sc);
        });
        ++lc.predecodeCalls;
        lc.predecodeHits += harness::predecodeCacheSize() == before;

        sim::Simulator &s = tr.span("sim.setup", [&]() -> sim::Simulator & {
            return arena.acquire(cp.program, sc, pd);
        });
        sim::SimResult res = tr.span("sim.run", [&] { return s.run(); });
        lc.simInstructions += res.instructions;
        lc.simCycles += res.cycles;
        for (const char *name : simStats)
            lc.stats[name] += res.stats.get(name);

        harness::RunOutcome o;
        o.cycles = res.cycles;
        o.instructions = res.instructions;
        o.compiled.staticSize = cp.staticSize;
        tr.span("harness.verify", [&] {
            if (res.ok) {
                o.result = s.state().loadWord(cp.resultAddr);
                o.verified = o.result == cp.golden;
                o.status = o.verified ? harness::RunStatus::Ok
                                      : harness::RunStatus::WrongResult;
            } else {
                o.status = res.reason == sim::StopReason::CycleLimit
                               ? harness::RunStatus::CycleLimit
                               : harness::RunStatus::PanicFailure;
                o.error = res.error;
            }
            return 0;
        });
        account(r, c, o, max_cycles > 0);
        return 0;
    });
}

/**
 * fuzz::compileInput, issued as its two pipeline halves so the
 * frontend and backend show as layers (compileInput compiles with a
 * cold, uncached frontend).
 */
void
replayCompileInput(Tracer &tr, LayerCounts &lc, const fuzz::FuzzInput &in)
{
    tr.span("fuzz.compile", [&] {
        workloads::Workload w = fuzz::specWorkload(in.prog);
        harness::CompileOptions opts = fuzz::compileOptionsFor(in.cfg);
        auto fe = tr.span("pipeline.frontend", [&] {
            return pipeline::runFrontend(w, opts.level, opts.ilp);
        });
        ++lc.frontendCalls;
        pipeline::PassReport prep;
        pipeline::CompiledProgram cp = tr.span("pipeline.backend", [&] {
            return pipeline::runBackend(*fe, opts, &prep);
        });
        ++lc.backendCalls;
        lc.backendKeys.insert(backendKey(w.name, opts));
        addPassReport(lc, prep);
        lc.spillOps += cp.spillOps;
        lc.connectOps += cp.connectOps;
        lc.saveRestoreOps += cp.saveRestoreOps;
        return 0;
    });
}

/** runCampaign's per-(round, slot) seed (fuzz/campaign.cc). */
std::uint64_t
slotSeed(std::uint64_t seed, int r, int i)
{
    return seed ^
           (static_cast<std::uint64_t>(r + 1) * 0xd1b54a32d192ed03ull) ^
           (static_cast<std::uint64_t>(i + 1) * 0x2545f4914f6cdd1dull);
}

/**
 * The campaign's call sequence, one input at a time: generate (fresh
 * in round 0, mutated from the admitted pool later, exactly as
 * runCampaign derives them) -> compileInput -> runBank -> coverage
 * admission; then crossValidate over the admitted corpus.
 */
void
replayFuzz(Tracer &tr, LayerCounts &lc, std::uint64_t seed,
           PassResult &r)
{
    fuzz::CoverageMap cov;
    std::vector<fuzz::FuzzInput> pool;
    sim::SimArena arena;
    for (int round = 0; round < fuzzRounds; ++round) {
        std::vector<fuzz::FuzzInput> inputs;
        for (int i = 0; i < fuzzBatch; ++i)
            inputs.push_back(tr.span("fuzz.generate", [&] {
                std::uint64_t s = slotSeed(seed, round, i);
                if (round == 0 || pool.empty())
                    return fuzz::randomInput(s);
                SplitMix rng(s);
                const fuzz::FuzzInput &base = pool[rng.below(
                    static_cast<std::uint32_t>(pool.size()))];
                return fuzz::mutateInput(base, rng);
            }));
        // Admission is folded after the round, as in the campaign.
        std::vector<bool> admit(inputs.size());
        for (std::size_t i = 0; i < inputs.size(); ++i)
            tr.span(spanCell, [&] {
                replayCompileInput(tr, lc, inputs[i]);
                fuzz::BankOptions bo;
                bo.arena = &arena;
                fuzz::BankVerdict v = tr.span("fuzz.bank", [&] {
                    return fuzz::runBank(inputs[i], bo);
                });
                ++lc.bankRuns;
                ++r.tasks;
                r.simCycles += v.cycles;
                r.instructions += v.instructions;
                r.codeSize += v.staticSize;
                if (v.status != "ok") {
                    ++r.failed;
                    error(r, "bank verdict '" + v.status + "': " +
                                 v.detail);
                }
                admit[i] = tr.span("fuzz.coverage", [&] {
                    return cov.admit(v.features);
                });
                return 0;
            });
        for (std::size_t i = 0; i < inputs.size(); ++i)
            if (admit[i])
                pool.push_back(inputs[i]);
    }
    lc.admitted = pool.size();
    lc.features = cov.size();
    for (const fuzz::FuzzInput &in : pool)
        tr.span(spanCell, [&] {
            fuzz::XvalReport xr = tr.span(
                "analysis.xval", [&] { return fuzz::crossValidate(in); });
            ++r.tasks;
            lc.xvalClaims += xr.claims;
            lc.xvalHits += xr.claimsHit;
            lc.xvalInstructions += xr.instructions;
            if (xr.contradicted()) {
                ++r.failed;
                error(r, "xval contradiction: " + xr.findings.front().kind);
            }
            return 0;
        });
}

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

int
runReplay(const std::string &workload, std::uint64_t seed,
          const std::string &trace_out)
{
    Tracer tr;
    LayerCounts lc;
    PassResult r;
    Clock::time_point t0 = Clock::now();
    tr.span(spanPass, [&] {
        if (workload == "fuzz_campaign") {
            replayFuzz(tr, lc, seed, r);
            return 0;
        }
        bool churn = workload == "config_churn";
        // paper_suite passes also run each workload's baseline
        // (Experiment::baselineCycles); they are not sweep tasks.
        sim::SimArena arena;
        PassResult base;
        if (!churn)
            for (const Cell &c : baselineCells())
                replayCell(tr, lc, arena, c, 0, base);
        r.errors = base.errors;
        for (const Cell &c : flatten(paperSuite(seed)))
            replayCell(tr, lc, arena, c, churn ? churnCycleCap : 0, r);
        return 0;
    });
    double wall = seconds(t0, Clock::now());

    double attributed = 0;
    for (const auto &[name, us] : tr.selfUs())
        if (name != spanPass && name != spanCell)
            attributed += us;
    pipeline::FrontendCache::Stats fs = pipeline::frontendCache().stats();
    double xvalMs = tr.selfMs("analysis.xval");
    bool fuzzing = workload == "fuzz_campaign";
    double compileMs = tr.selfMs("fuzz.compile") +
                       tr.selfMs("pipeline.frontend") +
                       tr.selfMs("pipeline.backend");
    double frontendHitRatio =
        fuzzing ? 0.0
            : ratio(static_cast<double>(fs.hits),
                    static_cast<double>(fs.hits + fs.misses));

    std::vector<std::pair<std::string, double>> m = {
        {"pipeline.frontend.calls", double(lc.frontendCalls)},
        {"pipeline.frontend.busy_ms", tr.selfMs("pipeline.frontend")},
        {"pipeline.frontend.hit_ratio", frontendHitRatio},
        {"pipeline.backend.calls", double(lc.backendCalls)},
        {"pipeline.backend.busy_ms", tr.selfMs("pipeline.backend")},
        {"pipeline.backend.distinct_key_share",
         ratio(double(lc.backendKeys.size()), double(lc.backendCalls))},
        {"pipeline.pass.allocate_ms", lc.allocateMs},
        {"pipeline.pass.schedule_ms", lc.scheduleMs},
        {"pipeline.pass.rewrite_ms", lc.rewriteMs},
        {"pipeline.pass.connect_ms", lc.connectMs},
        {"harness.predecode.calls", double(lc.predecodeCalls)},
        {"harness.predecode.busy_ms", tr.selfMs("harness.predecode")},
        {"harness.predecode.hit_ratio",
         ratio(double(lc.predecodeHits), double(lc.predecodeCalls))},
        {"harness.verify.busy_ms", tr.selfMs("harness.verify")},
        {"sim.setup.busy_ms", tr.selfMs("sim.setup")},
        {"sim.run.busy_ms", tr.selfMs("sim.run")},
        {"sim.run.ns_per_instr",
         ratio(tr.selfMs("sim.run") * 1e6, double(lc.simInstructions))},
        {"sim.ipc", ratio(double(lc.simInstructions), double(lc.simCycles))},
        {"sim.cycles", double(r.simCycles)},
        {"sim.rc16_of_unlimited", rc16OfUnlimited(r)},
        {"pipeline.code_size", double(r.codeSize)},
        {"regalloc.spill_ops", double(lc.spillOps)},
        {"regalloc.connect_ops", double(lc.connectOps)},
        {"regalloc.save_restore_ops", double(lc.saveRestoreOps)},
        {"fuzz.generate_ms", tr.selfMs("fuzz.generate")},
        {"fuzz.compile_ms", fuzzing ? compileMs : 0.0},
        // runBank compiles its input again; bank_ms is the rest.
        {"fuzz.bank_ms",
         fuzzing ? tr.selfMs("fuzz.bank") - compileMs : 0.0},
        {"fuzz.coverage.features", double(lc.features)},
        {"fuzz.coverage.admit_ratio",
         ratio(double(lc.admitted), double(lc.bankRuns))},
        {"analysis.xval_ms", xvalMs},
        {"analysis.instr_per_s",
         ratio(double(lc.xvalInstructions), xvalMs / 1000.0)},
        {"analysis.claims_observed_ratio",
         ratio(double(lc.xvalHits), double(lc.xvalClaims))},
        {"trace.unattributed_share",
         ratio(wall * 1e6 - attributed, wall * 1e6)},
    };
    for (const char *name : simStats)
        m.push_back({std::string("sim.") + name, double(lc.stats[name])});

    std::string chrome = tr.chromeJson();
    trace::TraceCheck chk = trace::checkChromeTrace(chrome);
    if (!chk.ok)
        error(r, "trace rejected by the trace checker: " + chk.error);
    if (!trace_out.empty()) {
        std::ofstream out(trace_out, std::ios::binary);
        out << chrome;
        if (!out)
            error(r, "cannot write " + trace_out);
    }

    std::string j = "{\"workload\":" + json::str(workload);
    j += ",\"seed\":" + std::to_string(seed);
    j += ",\"wall_s\":" + num(wall);
    j += ",\"tasks\":" + std::to_string(r.tasks);
    j += ",\"failed\":" + std::to_string(r.failed);
    j += ",\"sim_cycles\":" + std::to_string(r.simCycles);
    j += ",\"code_size\":" + std::to_string(r.codeSize);
    j += ",\"admitted\":" + std::to_string(lc.admitted);
    j += ",\"trace_events\":" + std::to_string(chk.events);
    j += ",\"layers\":{";
    bool first = true;
    for (const auto &[name, us] : tr.selfUs()) {
        j += (first ? "" : ",") + json::str(name) + ":{\"self_ms\":" +
             num(us / 1000.0) + ",\"calls\":" +
             std::to_string(tr.calls(name)) + "}";
        first = false;
    }
    j += "},\"metrics\":{";
    for (std::size_t i = 0; i < m.size(); ++i)
        j += (i ? "," : "") + json::str(m[i].first) + ":" +
             num(m[i].second);
    j += "},\"errors\":[";
    for (std::size_t i = 0; i < r.errors.size(); ++i)
        j += (i ? "," : "") + json::str(r.errors[i]);
    j += "]}";
    std::printf("%s\n", j.c_str());
    return r.errors.empty() ? 0 : 1;
}

// ------------------------------------------------------------------
// Host calibration and CLI
// ------------------------------------------------------------------

/** A fixed dependent integer loop; score in million steps/s. */
int
runCalibrate()
{
    constexpr std::uint64_t steps = 200'000'000;
    std::vector<double> scores;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int rep = 0; rep < 5; ++rep) {
        Clock::time_point t0 = Clock::now();
        for (std::uint64_t i = 0; i < steps / 5; ++i)
            x = x * 6364136223846793005ull + (x >> 29) + i;
        double s = seconds(t0, Clock::now());
        scores.push_back(static_cast<double>(steps / 5) / s / 1e6);
    }
    std::sort(scores.begin(), scores.end());
    std::printf("{\"calibration_msteps_per_s\":%s,\"sink\":%llu}\n",
                num(scores[2]).c_str(),
                static_cast<unsigned long long>(x & 0xff));
    return 0;
}

int
usage(int code)
{
    std::fprintf(code ? stderr : stdout,
                 "usage: rcbench pass --workload W --seed N [--jobs J]\n"
                 "       rcbench replay --workload W --seed N "
                 "[--trace-out FILE]\n"
                 "       rcbench calibrate\n"
                 "workloads: paper_suite config_churn fuzz_campaign\n");
    return code;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(2);
    std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h")
        return usage(0);
    if (cmd != "pass" && cmd != "replay" && cmd != "calibrate")
        return usage(2);

    std::string workload, trace_out;
    std::uint64_t seed = 1;
    int jobs = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--help" || a == "-h")
            return usage(0);
        if (i + 1 >= argc)
            return usage(2);
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                return usage(2);
        } else if (a == "--jobs") {
            jobs = static_cast<int>(std::strtol(v.c_str(), &end, 10));
            if (v.empty() || *end || jobs < 1)
                return usage(2);
        } else if (a == "--trace-out" && cmd == "replay") {
            trace_out = v;
        } else {
            return usage(2);
        }
    }
    if (cmd == "calibrate")
        return runCalibrate();
    if (workload != "paper_suite" && workload != "config_churn" &&
        workload != "fuzz_campaign")
        return usage(2);

    setQuiet(true);
    if (cmd == "replay")
        return runReplay(workload, seed, trace_out);

    PassResult r = workload == "paper_suite" ? runPaperSuite(seed, jobs)
                   : workload == "config_churn"
                       ? runConfigChurn(seed)
                       : runFuzzCampaign(seed);
    int used = workload == "paper_suite" ? jobs : 1;
    std::printf("%s\n", passJson(workload, seed, used, r).c_str());
    return r.errors.empty() ? 0 : 1;
}
