/**
 * @file
 * perfbench_driver — closed-loop benchmark driver for the Geomancy
 * decision loop.
 *
 * One simulated Belle II client: each workload run starts only after
 * the previous run, and any decision cycle (or fleet round) it
 * triggered, has finished. The driver repeats whole sessions — build
 * the stack, warm up, place, run the measured phase through
 * core::ExperimentRunner::step() — until the time budget is spent,
 * and writes the raw observations of every session as one JSON
 * document. perfbench/run.py turns that into the benchmark's metrics
 * and correctness verdict; run the benchmark through it.
 *
 * Usage:
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    --out FILE --work DIR [--quick]
 *
 * Every layer is timed from outside, through its public calls: the
 * policy is wrapped in a timing decorator (one rebalance is one
 * Geomancy::runCycle or one ShardCoordinator::runRound), the snapshot
 * write is timed in the runner's checkpoint hook, and traced sessions
 * export the host spans and MetricRegistry snapshot the program
 * already records.
 */

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hh"
#include "core/experiment.hh"
#include "core/policies.hh"
#include "core/shard_coordinator.hh"
#include "storage/bluesky.hh"
#include "storage/fault_injector.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/random.hh"
#include "util/state_io.hh"
#include "util/thread_pool.hh"
#include "util/trace_event.hh"
#include "workload/belle2.hh"

namespace {

using namespace geo;
using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** One benchmark workload: the shape of a session. */
struct WorkloadSpec
{
    const char *name;
    size_t tenants;     ///< Belle II suites (24 files each)
    size_t shards;      ///< 0: monolithic Geomancy
    size_t warmupRuns;
    size_t measuredRuns;
    size_t cadence;     ///< runs between decision cycles
    size_t epochs;      ///< DRL retraining epochs per cycle
    bool chaos;         ///< seeded schedule of every fault kind
    bool durable;       ///< snapshot per run, file ReplayDB, ledger
    size_t inputSets;   ///< per benchmark seed; their mean steadies GB/s
};

// Why each workload exists is in perfbench/README.md.
const WorkloadSpec kWorkloads[] = {
    {"belle2-paper", 1, 0, 28, 40, 5, 20, false, false, 4},
    {"fleet-4x4", 4, 4, 7, 40, 5, 20, false, false, 4},
    {"chaos-durable", 1, 0, 28, 120, 10, 2, true, true, 5},
};

/**
 * The reference kernel: a fixed dense matrix product, the kind of
 * arithmetic the DRL training does, in the driver's own code so that no
 * change to src/ changes its cost. A session runs it before and after
 * its set-up and after every measured step, outside the timed
 * intervals. On a shared host the speed of such code drifts by tens of
 * percent from one half-minute to the next (tenants sharing the core
 * contend for its arithmetic units and caches), and the drift reaches
 * this kernel and the program alike, so run.py divides each timing by
 * the kernel time that brackets it.
 */
double
referenceKernelMs()
{
    constexpr int n = 64;
    static double a[n * n], b[n * n], c[n * n];
    static bool filled = false;
    if (!filled) {
        for (int i = 0; i < n * n; ++i) {
            a[i] = std::sin(i);
            b[i] = std::cos(i);
        }
        filled = true;
    }
    Clock::time_point start = Clock::now();
    for (int rep = 0; rep < 120; ++rep) {
        for (int i = 0; i < n; ++i)
            for (int k = 0; k < n; ++k) {
                double x = a[i * n + k];
                for (int j = 0; j < n; ++j)
                    c[i * n + j] += x * b[k * n + j];
            }
        // Feed the product back so no repetition can be elided.
        a[rep] += c[rep] * 1e-12;
    }
    return msSince(start);
}

/**
 * Median of three reference kernels before and three after a short
 * timed phase: the set-up of a chaos-durable session lasts about as
 * long as ten kernels, too short for one kernel on each side.
 */
double
bracketKernelMs(const std::vector<double> &before)
{
    std::vector<double> samples = before;
    for (int i = 0; i < 3; ++i)
        samples.push_back(referenceKernelMs());
    std::sort(samples.begin(), samples.end());
    return (samples[samples.size() / 2 - 1] + samples[samples.size() / 2]) /
           2.0;
}

/** Cross-shard per-device, per-round move budget of fleet-4x4. */
constexpr size_t kMovesPerDevicePerRound = 6;
/** Simulated seconds one Belle II run takes, to size the chaos
 *  schedule so faults cover the whole session. */
constexpr double kSimSecondsPerRun = 25.0;

struct Options
{
    const WorkloadSpec *spec = nullptr;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    bool quick = false;
    std::string out;
    std::string work;
};

/** Strict decimal parse: the whole string, no sign, no overflow. */
bool
parseU64(const char *text, uint64_t &out)
{
    if (!text || !*text)
        return false;
    uint64_t value = 0;
    for (const char *p = text; *p; ++p) {
        if (*p < '0' || *p > '9')
            return false;
        uint64_t digit = static_cast<uint64_t>(*p - '0');
        if (value > (UINT64_MAX - digit) / 10)
            return false;
        value = value * 10 + digit;
    }
    out = value;
    return true;
}

bool
parseArgs(int argc, char **argv, Options &options)
{
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            options.quick = true;
            continue;
        }
        if (i + 1 >= argc) {
            std::fprintf(stderr, "perfbench_driver: %s needs a value\n",
                         arg.c_str());
            return false;
        }
        const char *value = argv[++i];
        uint64_t number = 0;
        if (arg == "--workload") {
            for (const WorkloadSpec &spec : kWorkloads)
                if (std::strcmp(spec.name, value) == 0)
                    options.spec = &spec;
            if (!options.spec) {
                std::fprintf(stderr,
                             "perfbench_driver: unknown workload '%s'\n",
                             value);
                return false;
            }
        } else if (arg == "--seed" && parseU64(value, number)) {
            options.seed = number;
            have_seed = true;
        } else if (arg == "--seconds" && parseU64(value, number) &&
                   number >= 1 && number <= 3600) {
            options.seconds = static_cast<double>(number);
            have_seconds = true;
        } else if (arg == "--trace" && parseU64(value, number) &&
                   number <= 1) {
            options.trace = number == 1;
            have_trace = true;
        } else if (arg == "--out") {
            options.out = value;
        } else if (arg == "--work") {
            options.work = value;
        } else {
            std::fprintf(stderr,
                         "perfbench_driver: bad argument %s '%s'\n",
                         arg.c_str(), value);
            return false;
        }
    }
    if (!options.spec || !have_seed || !have_seconds || !have_trace ||
        options.out.empty() || options.work.empty()) {
        std::fprintf(stderr,
                     "usage: perfbench_driver --workload NAME --seed N "
                     "--seconds S --trace 0|1 --out FILE --work DIR "
                     "[--quick]\n");
        return false;
    }
    return true;
}

/** splitmix64: derives independent seeds from the benchmark seed. */
uint64_t
mixSeed(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** FNV-1a over raw bytes. */
void
fnv(uint64_t &hash, const void *data, size_t size)
{
    const unsigned char *bytes = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001B3ULL;
    }
}

/**
 * Times every rebalance of the wrapped policy from outside it: one
 * Geomancy::runCycle for the monolith, one ShardCoordinator::runRound
 * for the fleet. `after` runs once each rebalance returns.
 */
class TimedPolicy : public core::PlacementPolicy
{
  public:
    TimedPolicy(core::PlacementPolicy &inner, std::function<void()> after)
        : inner_(inner), after_(std::move(after))
    {
    }

    std::string name() const override { return inner_.name(); }
    bool isDynamic() const override { return inner_.isDynamic(); }

    size_t
    rebalance(core::PolicyContext &context) override
    {
        Clock::time_point start = Clock::now();
        size_t moved = inner_.rebalance(context);
        ms.push_back(msSince(start));
        if (after_)
            after_();
        return moved;
    }

    std::vector<double> ms; ///< host wall time of each rebalance

  private:
    core::PlacementPolicy &inner_;
    std::function<void()> after_;
};

/**
 * The seeded chaos schedule: mixed-kind fault episodes (I/O errors,
 * degradation, outages, corrupt/stale/skewed telemetry) spread over
 * the simulated span of a session.
 */
void
addChaos(storage::FaultInjector &injector, size_t devices, uint64_t seed,
         double horizon)
{
    Rng chaos(mixSeed(seed ^ 0xC4A05ULL));
    for (double at = 5.0; at < horizon; at += chaos.uniform(5.0, 40.0)) {
        storage::FaultEvent e;
        e.device = static_cast<storage::DeviceId>(
            chaos.uniformInt(0, static_cast<int64_t>(devices) - 1));
        e.start = at;
        e.duration = chaos.uniform(5.0, 60.0);
        switch (chaos.uniformInt(0, 5)) {
          case 0:
            e.kind = storage::FaultKind::TransientErrors;
            e.magnitude = chaos.uniform(0.05, 0.35);
            break;
          case 1:
            e.kind = storage::FaultKind::Degradation;
            e.magnitude = chaos.uniform(0.3, 0.9);
            break;
          case 2:
            e.kind = storage::FaultKind::Outage;
            e.duration = chaos.uniform(2.0, 15.0);
            break;
          case 3:
            e.kind = storage::FaultKind::CorruptTelemetry;
            e.magnitude = chaos.uniform(0.2, 0.9);
            break;
          case 4:
            // Past the default one-day staleness window.
            e.kind = storage::FaultKind::StaleTelemetry;
            e.magnitude = chaos.uniform(90000.0, 250000.0);
            break;
          default:
            // Past the default one-hour future-skew slack.
            e.kind = storage::FaultKind::ClockSkew;
            e.magnitude = chaos.uniform(4000.0, 20000.0);
            break;
        }
        injector.addEvent(e);
    }
}

/** Everything one session runs on, in construction order. */
struct Stack
{
    std::unique_ptr<storage::StorageSystem> system;
    std::unique_ptr<workload::Belle2Workload> workload;
    std::unique_ptr<storage::FaultInjector> injector;
    std::unique_ptr<core::Geomancy> geomancy;
    std::unique_ptr<core::ShardCoordinator> coordinator;
    std::unique_ptr<core::PlacementPolicy> policy;
    std::unique_ptr<TimedPolicy> timed;
    std::unique_ptr<core::ExperimentRunner> runner;
    std::unique_ptr<core::CheckpointManager> checkpoints;

    std::vector<double> checkpointMs;
    std::vector<double> checkpointBytes;
    size_t budgetViolations = 0;
    size_t peakRoundDeviceMoves = 0;

    std::vector<core::Geomancy *>
    engines() const
    {
        std::vector<core::Geomancy *> out;
        if (geomancy)
            out.push_back(geomancy.get());
        if (coordinator)
            for (size_t s = 0; s < coordinator->shardCount(); ++s)
                out.push_back(&coordinator->shard(s));
        return out;
    }
};

/**
 * Seeds of one input set: the Belle II catalogue and access stream,
 * the background traffic and the fault schedule. Geomancy's own seed
 * is program configuration and stays at its default.
 */
struct InputSeeds
{
    uint64_t system, workload, experiment, faults;
};

InputSeeds
inputSeeds(uint64_t seed)
{
    return {mixSeed(seed), mixSeed(seed + 1), mixSeed(seed + 2),
            mixSeed(seed + 3)};
}

core::ExperimentConfig
experimentConfig(const WorkloadSpec &spec, const InputSeeds &seeds)
{
    core::ExperimentConfig config;
    config.warmupRuns = spec.warmupRuns;
    config.measuredRuns = spec.measuredRuns;
    config.cadence = spec.cadence;
    config.seed = seeds.experiment;
    return config;
}

/** System, workload and (for chaos) the fault schedule. */
void
buildSubstrate(Stack &stack, const WorkloadSpec &spec,
               const InputSeeds &seeds)
{
    stack.system = storage::makeBlueskySystem(seeds.system);
    workload::Belle2Config wconfig;
    wconfig.tenantCount = spec.tenants;
    wconfig.seed = seeds.workload;
    stack.workload =
        std::make_unique<workload::Belle2Workload>(*stack.system, wconfig);
    if (spec.chaos) {
        storage::FaultInjectorConfig fconfig;
        fconfig.seed = seeds.faults;
        stack.injector = std::make_unique<storage::FaultInjector>(
            *stack.system, fconfig);
        stack.system->attachFaultInjector(stack.injector.get());
        addChaos(*stack.injector, stack.system->deviceCount(),
                 seeds.faults,
                 kSimSecondsPerRun *
                     static_cast<double>(spec.warmupRuns +
                                         spec.measuredRuns));
    }
}

/** Build the Geomancy stack of one session (the timed set-up). */
void
buildStack(Stack &stack, const WorkloadSpec &spec, const InputSeeds &seeds,
           const std::string &dir)
{
    std::string db_path = ":memory:";
    if (spec.durable) {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        core::CheckpointManagerConfig mconfig;
        mconfig.dir = dir;
        stack.checkpoints =
            std::make_unique<core::CheckpointManager>(mconfig);
        db_path = dir + "/replay.db";
    }
    buildSubstrate(stack, spec, seeds);

    core::GeomancyConfig gconfig;
    gconfig.drl.epochs = spec.epochs;
    if (spec.shards > 0) {
        core::ShardCoordinatorConfig ccfg;
        ccfg.shardCount = spec.shards;
        ccfg.base = gconfig;
        ccfg.maxMovesPerDevicePerRound = kMovesPerDevicePerRound;
        stack.coordinator = std::make_unique<core::ShardCoordinator>(
            *stack.system, stack.workload->files(), ccfg, db_path);
        auto sharded =
            std::make_unique<core::ShardedGeomancyPolicy>(*stack.coordinator);
        core::ShardedGeomancyPolicy &policy = *sharded;
        stack.policy = std::move(sharded);
        // Independent budget check: count the applied moves touching
        // each device in the round, from the shards' own reports.
        Stack *s = &stack;
        stack.timed = std::make_unique<TimedPolicy>(policy, [s, &policy]() {
            std::vector<size_t> touched(s->system->deviceCount(), 0);
            for (const core::CycleReport &report : policy.lastReports())
                for (const core::AppliedMove &fate : report.moves.outcomes)
                    if (fate.outcome == core::AttemptOutcome::Applied &&
                        fate.from != fate.to) {
                        ++touched[fate.from];
                        ++touched[fate.to];
                    }
            for (storage::DeviceId d = 0; d < touched.size(); ++d) {
                size_t admitted = s->coordinator->roundUsage(d).moves;
                size_t peak = std::max(touched[d], admitted);
                s->peakRoundDeviceMoves =
                    std::max(s->peakRoundDeviceMoves, peak);
                if (peak > kMovesPerDevicePerRound)
                    ++s->budgetViolations;
            }
        });
    } else {
        stack.geomancy = std::make_unique<core::Geomancy>(
            *stack.system, stack.workload->files(), gconfig, db_path);
        if (spec.durable)
            stack.geomancy->attachLedger(dir + "/ledger.ndjson");
        stack.policy =
            std::make_unique<core::GeomancyDynamicPolicy>(*stack.geomancy);
        stack.timed = std::make_unique<TimedPolicy>(*stack.policy, nullptr);
    }

    stack.runner = std::make_unique<core::ExperimentRunner>(
        *stack.system, *stack.workload, *stack.timed,
        experimentConfig(spec, seeds));

    if (spec.durable) {
        // A consistent cut after every measured run, as the sim tool
        // writes it; the write is timed here, from outside.
        Stack *s = &stack;
        stack.runner->setCheckpointHook([s](size_t done) {
            Clock::time_point start = Clock::now();
            std::ostringstream os;
            util::StateWriter w(os);
            s->geomancy->saveState(w);
            if (s->injector)
                s->injector->saveState(w);
            s->workload->saveState(w);
            s->runner->saveState(w);
            std::string payload = os.str();
            if (!s->checkpoints->write(done, payload))
                fatal("perfbench: checkpoint write failed");
            s->checkpointMs.push_back(msSince(start));
            s->checkpointBytes.push_back(
                static_cast<double>(payload.size()));
        });
    }
}

/**
 * Best single-mount static placement on the same inputs: every file
 * pinned to one mount, for each mount. Cheap and untimed.
 */
double
bestStaticGbps(const WorkloadSpec &spec, const InputSeeds &seeds)
{
    double best = 0.0;
    size_t devices = storage::blueskyMountNames().size();
    for (storage::DeviceId d = 0; d < devices; ++d) {
        Stack stack;
        buildSubstrate(stack, spec, seeds);
        core::SingleMountPolicy policy(d);
        core::ExperimentRunner runner(*stack.system, *stack.workload,
                                      policy,
                                      experimentConfig(spec, seeds));
        double gbps = runner.run().averageThroughput / 1e9;
        if (!std::isfinite(gbps))
            return gbps;
        best = std::max(best, gbps);
    }
    return best;
}

/** Raw observations of one session. */
struct Session
{
    uint64_t seed = 0;
    bool traced = false;
    double setupS = 0.0;
    double setupKernelMs = 0.0; ///< median of the kernels around set-up
    double measureS = 0.0;      ///< sum of the measured steps
    size_t accesses = 0;
    double gbps = 0.0;
    double bestStaticGbps = 0.0;
    uint64_t filesMoved = 0;
    uint64_t bytesMoved = 0;
    std::string digest;
    std::vector<double> stepMs;       ///< wall time of each measured step
    std::vector<double> stepKernelMs; ///< kernels bracketing each step
    std::vector<double> runMs; ///< step minus rebalance and checkpoint
    std::vector<double> cycleMs;
    std::vector<double> cycleStep; ///< the step each cycle ran in
    std::vector<double> checkpointMs;
    std::vector<double> checkpointBytes;
    int64_t replayRows = 0;
    uint64_t replayFileBytes = 0;
    uint64_t ledgerRows = 0;
    uint64_t ledgerBytes = 0;
    size_t budgetViolations = 0;
    size_t peakRoundDeviceMoves = 0;
    std::string registryJson;
    std::string tracePath;
    uint64_t traceDropped = 0;
};

int64_t
replayRows(const Stack &stack)
{
    int64_t rows = 0;
    for (core::Geomancy *engine : stack.engines()) {
        core::ReplayDbWatermark wm = engine->replayDb().watermark();
        rows += wm.accesses + wm.movements + wm.moveAttempts +
                wm.faultEvents;
    }
    return rows;
}

uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    uintmax_t size = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<uint64_t>(size);
}

std::string
decisionDigest(const Stack &stack, const core::ExperimentResult &result)
{
    uint64_t hash = 0xCBF29CE484222325ULL;
    for (storage::FileId file : stack.workload->files()) {
        storage::DeviceId where = stack.system->location(file);
        fnv(hash, &file, sizeof file);
        fnv(hash, &where, sizeof where);
    }
    fnv(hash, &result.filesMoved, sizeof result.filesMoved);
    fnv(hash, &result.bytesMoved, sizeof result.bytesMoved);
    uint64_t bits = std::bit_cast<uint64_t>(result.averageThroughput);
    fnv(hash, &bits, sizeof bits);
    char text[17];
    std::snprintf(text, sizeof text, "%016llx",
                  static_cast<unsigned long long>(hash));
    return text;
}

Session
runSession(const WorkloadSpec &spec, uint64_t seed, bool traced,
           const std::string &dir, const std::string &trace_path)
{
    Session out;
    out.seed = seed;
    out.traced = traced;
    InputSeeds seeds = inputSeeds(seed);
    Stack stack;

    // Set-up: construction, warmup runs and the initial placement.
    std::vector<double> before = {referenceKernelMs(), referenceKernelMs(),
                                  referenceKernelMs()};
    Clock::time_point start = Clock::now();
    buildStack(stack, spec, seeds, dir);
    for (size_t i = 0; i < spec.warmupRuns + 1; ++i)
        stack.runner->step();
    out.setupS = msSince(start) / 1e3;
    out.setupKernelMs = bracketKernelMs(before);
    double kernel_ms = referenceKernelMs();

    stack.timed->ms.clear();
    stack.checkpointMs.clear();
    stack.checkpointBytes.clear();
    util::MetricRegistry::global().reset();
    int64_t rows_before = replayRows(stack);
    uint64_t ledger_rows_before = 0, ledger_bytes_before = 0;
    if (stack.geomancy && stack.geomancy->ledger()) {
        ledger_rows_before = stack.geomancy->ledger()->rowsWritten();
        ledger_bytes_before = fileBytes(stack.geomancy->ledger()->path());
    }
    if (traced)
        util::TraceCollector::global().enable(1 << 18);

    // The measured phase: one closed-loop client.
    bool more = true;
    while (more) {
        size_t cycles = stack.timed->ms.size();
        size_t snapshots = stack.checkpointMs.size();
        Clock::time_point step = Clock::now();
        more = stack.runner->step();
        double ms = msSince(step);
        double kernel_after = referenceKernelMs();
        out.stepKernelMs.push_back((kernel_ms + kernel_after) / 2.0);
        kernel_ms = kernel_after;
        out.stepMs.push_back(ms);
        out.measureS += ms / 1e3;
        for (size_t i = cycles; i < stack.timed->ms.size(); ++i) {
            out.cycleStep.push_back(static_cast<double>(out.runMs.size()));
            ms -= stack.timed->ms[i];
        }
        for (size_t i = snapshots; i < stack.checkpointMs.size(); ++i)
            ms -= stack.checkpointMs[i];
        out.runMs.push_back(ms);
    }

    if (traced) {
        util::TraceCollector &collector = util::TraceCollector::global();
        collector.disable();
        out.traceDropped = collector.droppedCount();
        if (!collector.writeJsonFile(trace_path))
            fatal("perfbench: cannot write %s", trace_path.c_str());
        collector.clear();
        out.tracePath = trace_path;
    }
    out.registryJson = util::MetricRegistry::global().toJson();

    core::ExperimentResult result = stack.runner->finish();
    out.accesses = result.totalAccesses;
    out.gbps = result.averageThroughput / 1e9;
    out.filesMoved = result.filesMoved;
    out.bytesMoved = result.bytesMoved;
    out.digest = decisionDigest(stack, result);
    out.cycleMs = stack.timed->ms;
    out.checkpointMs = stack.checkpointMs;
    out.checkpointBytes = stack.checkpointBytes;
    out.replayRows = replayRows(stack) - rows_before;
    if (spec.durable) {
        out.replayFileBytes = fileBytes(dir + "/replay.db");
        core::DecisionLedger *ledger = stack.geomancy->ledger();
        out.ledgerRows = ledger->rowsWritten() - ledger_rows_before;
        out.ledgerBytes = fileBytes(ledger->path()) - ledger_bytes_before;
    }
    out.budgetViolations = stack.budgetViolations;
    out.peakRoundDeviceMoves = stack.peakRoundDeviceMoves;
    return out;
}

/** Minimal JSON writer for the raw-observation document. */
class Json
{
  public:
    explicit Json(std::ostream &os) : os_(os) {}

    void
    number(double v)
    {
        if (!std::isfinite(v)) {
            os_ << "null"; // run.py rejects non-finite values
            return;
        }
        char text[40];
        std::snprintf(text, sizeof text, "%.17g", v);
        os_ << text;
    }

    void
    string(const std::string &s)
    {
        os_ << '"';
        for (char c : s) {
            if (c == '"' || c == '\\')
                os_ << '\\' << c;
            else if (static_cast<unsigned char>(c) < 0x20)
                os_ << ' ';
            else
                os_ << c;
        }
        os_ << '"';
    }

    void
    array(const std::vector<double> &values)
    {
        os_ << '[';
        for (size_t i = 0; i < values.size(); ++i) {
            if (i)
                os_ << ',';
            number(values[i]);
        }
        os_ << ']';
    }

    void
    key(const char *name)
    {
        os_ << (first_ ? "" : ",") << "\n\"" << name << "\":";
        first_ = false;
    }

    void open() { os_ << '{'; first_ = true; }
    void close() { os_ << "\n}"; first_ = false; }
    void raw(const std::string &text) { os_ << text; }

  private:
    std::ostream &os_;
    bool first_ = true;
};

void
writeSession(Json &j, const Session &s)
{
    j.open();
    j.key("seed"); j.string(std::to_string(s.seed));
    j.key("traced"); j.raw(s.traced ? "true" : "false");
    j.key("setup_s"); j.number(s.setupS);
    j.key("setup_kernel_ms"); j.number(s.setupKernelMs);
    j.key("measure_s"); j.number(s.measureS);
    j.key("accesses"); j.number(static_cast<double>(s.accesses));
    j.key("gbps"); j.number(s.gbps);
    j.key("best_static_gbps"); j.number(s.bestStaticGbps);
    j.key("files_moved"); j.number(static_cast<double>(s.filesMoved));
    j.key("bytes_moved"); j.number(static_cast<double>(s.bytesMoved));
    j.key("digest"); j.string(s.digest);
    j.key("step_ms"); j.array(s.stepMs);
    j.key("step_kernel_ms"); j.array(s.stepKernelMs);
    j.key("run_ms"); j.array(s.runMs);
    j.key("cycle_ms"); j.array(s.cycleMs);
    j.key("cycle_step"); j.array(s.cycleStep);
    j.key("checkpoint_ms"); j.array(s.checkpointMs);
    j.key("checkpoint_bytes"); j.array(s.checkpointBytes);
    j.key("replay_rows"); j.number(static_cast<double>(s.replayRows));
    j.key("replay_file_bytes");
    j.number(static_cast<double>(s.replayFileBytes));
    j.key("ledger_rows"); j.number(static_cast<double>(s.ledgerRows));
    j.key("ledger_bytes"); j.number(static_cast<double>(s.ledgerBytes));
    j.key("budget_violations");
    j.number(static_cast<double>(s.budgetViolations));
    j.key("peak_round_device_moves");
    j.number(static_cast<double>(s.peakRoundDeviceMoves));
    j.key("trace_path"); j.string(s.tracePath);
    j.key("trace_dropped"); j.number(static_cast<double>(s.traceDropped));
    j.key("registry"); j.raw(s.registryJson);
    j.close();
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    if (!parseArgs(argc, argv, options))
        return 2;
    setLogLevel(LogLevel::Quiet);

    WorkloadSpec spec = *options.spec;
    if (options.quick) {
        spec.warmupRuns = 3;
        spec.measuredRuns = 2 * spec.cadence;
    }
    std::filesystem::create_directories(options.work);

    // Input sets of this benchmark seed, each with its baseline. The
    // sets run round-robin, plain (then traced, when tracing), until
    // the time budget is spent. A plain run covers every set and repeats
    // at least one, so decision digests are compared on identical
    // inputs; a traced run compares each traced session with its plain
    // twin.
    std::vector<uint64_t> seeds;
    std::vector<double> best_static;
    for (size_t k = 0; k < spec.inputSets; ++k) {
        seeds.push_back(mixSeed(options.seed * spec.inputSets + k));
        best_static.push_back(bestStaticGbps(spec, inputSeeds(seeds[k])));
    }
    size_t min_rounds = options.trace ? 1 : seeds.size() + 1;

    std::vector<Session> sessions;
    Clock::time_point start = Clock::now();
    for (size_t round = 0;; ++round) {
        size_t k = round % seeds.size();
        for (int traced = 0; traced <= (options.trace ? 1 : 0); ++traced) {
            std::string tag = strprintf("%zu", sessions.size());
            Session s = runSession(spec, seeds[k], traced == 1,
                                   options.work + "/session" + tag,
                                   options.work + "/trace" + tag + ".json");
            s.bestStaticGbps = best_static[k];
            sessions.push_back(std::move(s));
        }
        if (round + 1 >= min_rounds &&
            msSince(start) / 1e3 >= options.seconds)
            break;
    }

    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);

    std::ofstream os(options.out);
    Json j(os);
    j.open();
    j.key("schema"); j.string("perfbench-raw-1");
    j.key("workload"); j.string(spec.name);
    j.key("quick"); j.raw(options.quick ? "true" : "false");
    j.key("warmup_runs"); j.number(static_cast<double>(spec.warmupRuns));
    j.key("measured_runs");
    j.number(static_cast<double>(spec.measuredRuns));
    j.key("cadence"); j.number(static_cast<double>(spec.cadence));
    j.key("epochs"); j.number(static_cast<double>(spec.epochs));
    j.key("shards"); j.number(static_cast<double>(spec.shards));
    j.key("tenants"); j.number(static_cast<double>(spec.tenants));
    j.key("moves_per_device_per_round");
    j.number(static_cast<double>(kMovesPerDevicePerRound));
    j.key("wall_s"); j.number(msSince(start) / 1e3);
    j.key("peak_rss_kb"); j.number(static_cast<double>(usage.ru_maxrss));
    j.key("hw_concurrency");
    j.number(static_cast<double>(std::thread::hardware_concurrency()));
    j.key("pool_threads");
    j.number(static_cast<double>(
        util::ThreadPool::global().workerCount()));
    j.key("compiler"); j.string(__VERSION__);
#ifdef GEO_CHECK_BOUNDS
    j.key("geo_check_bounds"); j.raw("true");
#else
    j.key("geo_check_bounds"); j.raw("false");
#endif
    j.key("geo_trace"); j.raw(GEO_TRACE ? "true" : "false");
    j.key("sessions");
    os << '[';
    for (size_t i = 0; i < sessions.size(); ++i) {
        if (i)
            os << ',';
        writeSession(j, sessions[i]);
    }
    os << ']';
    j.close();
    os << '\n';
    if (!os) {
        std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                     options.out.c_str());
        return 1;
    }
    return 0;
}
