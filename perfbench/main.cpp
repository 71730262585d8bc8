//===- perfbench/main.cpp - end-to-end benchmark of the update pipeline ---===//
//
// One process, one thread, jobs = 1 in every layer. A run is a set-up,
// repeated from scratch for the first quarter of --seconds (median
// reported), followed by whole rounds of releases until --seconds have
// passed. Every round starts from a fresh set-up, so every round does
// the same work and memory stays the same however fast the program is.
// Every release takes one source edit through the public entry points of
// each layer:
//
//   1. commit      PlanService::commit of the edited source
//   2. plan        PlanService::plan for every stale cohort (cache misses)
//   3. fetch       the fleet's polling stream through PlanService::plan
//                  (cache hits), timed in fixed-size windows
//   4. flood       simulateFlood of every cohort's package
//   5. nodes       applyUpdate on every node, runImage of the head image
//
// Every output is checked against a computation made apart from the
// program (host oracle, independent endpoint diff, energy ledger sums).
// See README.md for the workloads, metrics and reference figures.
//
//===----------------------------------------------------------------------===//

#include "firmware.h"

#include "core/CompileCache.h"
#include "core/VersionStore.h"
#include "diff/ImageDiff.h"
#include "net/EventSim.h"
#include "serve/PlanService.h"
#include "sim/Simulator.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

using namespace ucc;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// What a release changes in the firmware.
enum class ReleaseEdit {
  Stages,     ///< 1-3 stage edits of the Fig. 9 kinds (firmware.h)
  Globals,    ///< add or remove one global
  Calibration ///< retune one calibration-table entry
};

/// The make-up of one workload. Everything a release does is fixed by the
/// shape, so every release attempts the same number of operations.
struct Shape {
  const char *Name;
  ReleaseEdit Edit;
  int Stages;          ///< stage functions in the firmware
  bool Aes;            ///< embed the AES-128 workload
  bool SeededHistory;  ///< firmware edits drawn from --seed
  bool DirStore;       ///< commit into a directory-backed store
  int SetupVersions;   ///< versions committed during set-up
  int Cohorts;         ///< fleet spread over the last Cohorts versions
  int GridW, GridH;    ///< fleet topology (sink at a corner)
  size_t PlanCache;    ///< PlanServiceOptions::CacheCapacity
  int KeepReleases;    ///< past releases whose pairs the fleet still polls
  int Polls;           ///< polling requests per release
  int Window;          ///< requests per timed window
  int StaleNodes;      ///< nodes whose recorded version is wrong
  int RoundReleases;   ///< releases per round; the model outputs sum
                       ///< the first round
  double Loss, Jitter, Asym; ///< link model
  double DutyPeriod, DutyOn; ///< duty cycle (period 0 = always on)
  int MaxBursts;
};

const Shape Shapes[] = {
    // The developer's loop: many small releases of the Fig. 9 edit kinds,
    // a tiny fleet.
    {.Name = "release-train", .Edit = ReleaseEdit::Stages, .Stages = 40,
     .Aes = false, .SeededHistory = true, .DirStore = true,
     .SetupVersions = 5, .Cohorts = 3, .GridW = 5, .GridH = 5,
     .PlanCache = 8, .KeepReleases = 1, .Polls = 5000, .Window = 500,
     .StaleNodes = 0, .RoundReleases = 60, .Loss = 0, .Jitter = 0,
     .Asym = 0, .DutyPeriod = 0, .DutyOn = 1, .MaxBursts = 3},
    // The sink's read path: a large fleet polling between a few releases
    // that each shift the data layout.
    {.Name = "fleet-fetch", .Edit = ReleaseEdit::Globals, .Stages = 16,
     .Aes = true, .SeededHistory = true, .DirStore = false,
     .SetupVersions = 6, .Cohorts = 6, .GridW = 40, .GridH = 40,
     .PlanCache = 64, .KeepReleases = 3, .Polls = 1000000, .Window = 20000,
     .StaleNodes = 0, .RoundReleases = 12, .Loss = 0.05, .Jitter = 0.02,
     .Asym = 0, .DutyPeriod = 0, .DutyOn = 1, .MaxBursts = 3},
    // The network: a lossy, duty-cycled multi-hop grid on many versions.
    {.Name = "fleet-rollout", .Edit = ReleaseEdit::Calibration, .Stages = 16,
     .Aes = false, .SeededHistory = false, .DirStore = false,
     .SetupVersions = 8, .Cohorts = 6, .GridW = 120, .GridH = 120,
     .PlanCache = 64, .KeepReleases = 1, .Polls = 100000, .Window = 10000,
     .StaleNodes = 12, .RoundReleases = 5, .Loss = 0.2, .Jitter = 0.1,
     .Asym = 0.1, .DutyPeriod = 0.1, .DutyOn = 0.5, .MaxBursts = 6},
};

const Shape *findShape(const std::string &Name) {
  for (const Shape &S : Shapes)
    if (Name == S.Name)
      return &S;
  return nullptr;
}

/// Functions the compile cache holds; every set-up starts an empty one.
constexpr size_t CompileCacheEntries = 256;

/// Skew of every polling stream.
constexpr double ZipfS = 1.1;

/// Seed-independent salt of the rollout firmware history: the stale-base
/// fault must fail the same operations on every seed.
constexpr uint64_t FixedHistorySalt = 0x5eed0f1eULL;

//===----------------------------------------------------------------------===//
// Measurements
//===----------------------------------------------------------------------===//

struct Sample {
  std::vector<double> CommitMs, PlanMissMs, FetchPerS, RolloutS;
};

/// Sums over the first round (exact for a given seed).
struct Model {
  double ScriptBytes = 0, Joules = 0, SimS = 0, Cycles = 0, ImageBytes = 0;
};

/// Run totals read from outside the library (benchmark timers,
/// FleetResult), printed per release.
struct Outside {
  double ApplyS = 0, SimRunS = 0, SimSteps = 0;
  double FloodS = 0, Events = 0, Batches = 0, Collisions = 0,
         Retransmissions = 0, Requests = 0, SleepMisses = 0;
  double TxJ = 0, RxJ = 0, ListenJ = 0, SleepJ = 0;
  double HitWindowS = 0, HitRequests = 0;
};

//===----------------------------------------------------------------------===//
// The run
//===----------------------------------------------------------------------===//

class Bench {
public:
  Bench(const Shape &S, uint64_t Seed, std::string WorkDir)
      : S(S), Seed(Seed), WorkDir(std::move(WorkDir)),
        AesSource(workloadSource("AES")) {
    Opts.RA = RegAllocKind::UpdateConscious;
    Opts.DA = DataAllocKind::UpdateConscious;
    Opts.Jobs = 1;
    Topo = Topology::grid(S.GridW, S.GridH);
    for (int D : Topo.hopDistances())
      Connected += D >= 0 ? 1 : 0;
  }

  /// Builds the starting history from a cold compile cache and starts a
  /// round on it: a fresh service over the history, its plan cache warmed
  /// with what a running sink holds. Every round starts here, so every
  /// round does the same work however fast the program is. Returns false
  /// (with a message) when anything fails.
  bool setup();
  /// Folds the current round's service and compile-cache accounting into
  /// Serve and Cache.
  void absorb();
  /// Takes the last release through the shadow service: the same commit
  /// and cohort plans, then the first window of the polling stream;
  /// adds the window's misses to ShadowMisses.
  bool shadowRelease();
  /// One release; false on a broken invariant (not on a counted failure).
  /// Its stage spans record only when a TelemetryScope is installed; its
  /// own timers and FleetResult totals add into \p Out.
  bool release(int Index, Outside &Out);

  bool fail(const std::string &Msg) {
    if (Error.empty())
      Error = Msg;
    return false;
  }

  const Shape &S;
  uint64_t Seed;
  std::string WorkDir;
  std::string Error;
  int64_t Attempted = 0, Failed = 0;
  Sample Times;
  Model Mod;
  Outside Out; ///< releases that ran without a TelemetryScope
  int Releases = 0;
  std::unique_ptr<PlanService> Svc;
  std::unique_ptr<CompileCache> FnCache;
  PlanServiceStats Serve; ///< summed over every round's service
  CompileCacheStats Cache; ///< hits and misses summed over every round
  /// A plan service with the default options (eight shards) and the same
  /// capacity, fed outside every timer; only traced runs keep one.
  bool Shadowed = false;
  std::unique_ptr<PlanService> Shadow;
  double ShadowMisses = 0;
  int ShadowReleases = 0;
  /// The current round's stage edits, by kind.
  std::vector<int> KindCounts = std::vector<int>(NumEditKinds, 0);

private:
  bool startRound();
  FirmwareSpec initialSpec();
  FirmwareSpec edit(const FirmwareSpec &Prev, int NewId);
  bool commit(const FirmwareSpec &Spec, double *Ms);
  const BinaryImage &image(int Id) const { return Svc->store().find(Id)->Image; }
  std::vector<std::pair<int, int>> releasePairs(int Head) const;

  CompileOptions Opts;
  std::string AesSource;
  Topology Topo;
  int Connected = 0;
  Rng EditRng{0};
  std::vector<FirmwareSpec> Specs; ///< index = version id
  int NextAux = 0;
  int LastRev = 0;
  int LastGlobal = 0;
  size_t NextEdit = 0;
  std::vector<size_t> StageOrder; ///< seeded order stage edits walk
  VersionStore Base;                  ///< the set-up history
  std::vector<FirmwareSpec> BaseSpecs;
  PlanServiceStats RoundStart;        ///< Svc->stats() when it started
  CompileCacheStats CacheStart;       ///< FnCache->stats() then
  int Setups = 0;
  /// Script bytes of every pair planned so far (what a hit must return).
  std::map<std::pair<int, int>, size_t> PlannedBytes;
  /// The last release's polling stream (indices into LastWorking).
  std::vector<std::pair<int, int>> LastWorking;
  std::vector<uint32_t> LastStream;
};

FirmwareSpec Bench::initialSpec() {
  FirmwareSpec F;
  F.Salt = S.SeededHistory ? Seed * 0x9e3779b97f4a7c15ULL + 1
                           : FixedHistorySalt;
  F.Stages.assign(static_cast<size_t>(S.Stages), StageSpec());
  F.Aes = S.Aes;
  if (S.Edit == ReleaseEdit::Globals)
    for (int K = 0; K < 4; ++K)
      F.Aux.push_back({"aux_" + std::to_string(NextAux++),
                       1 + static_cast<int>(EditRng.below(999))});
  if (S.Edit == ReleaseEdit::Calibration)
    for (int K = 0; K < 8; ++K)
      F.Calib.push_back(900 + K);
  return F;
}

FirmwareSpec Bench::edit(const FirmwareSpec &Prev, int NewId) {
  FirmwareSpec F = Prev;
  switch (S.Edit) {
  case ReleaseEdit::Stages: {
    // A release edits 1, 2 or 3 stages in turn. Edits walk a seeded
    // order of the stages, so no stage is edited twice within any
    // cohort's window, and the kinds rotate so that each pass over the
    // stages gives every stage the next kind: every seed sees the same
    // mix of kinds.
    int Touched = 1 + NewId % 3;
    size_t N = F.Stages.size();
    for (int T = 0; T < Touched; ++T, ++NextEdit) {
      auto Kind = static_cast<EditKind>((NextEdit + NextEdit / N) %
                                        NumEditKinds);
      ++KindCounts[static_cast<size_t>(Kind)];
      applyEdit(F.Stages[StageOrder[NextEdit % N]], Kind, ++LastRev,
                ++LastGlobal, 1 + static_cast<int>(EditRng.below(999)));
    }
    break;
  }
  case ReleaseEdit::Globals: {
    // Positions cycle with the release; the seed draws the names' values.
    size_t Turn = static_cast<size_t>(NewId / 2);
    if (NewId % 2 == 0) {
      size_t At = Turn % (F.Aux.size() + 1);
      F.Aux.insert(F.Aux.begin() + static_cast<long>(At),
                   {"aux_" + std::to_string(NextAux++),
                    1 + static_cast<int>(EditRng.below(999))});
    } else {
      F.Aux.erase(F.Aux.begin() + static_cast<long>(Turn % F.Aux.size()));
    }
    break;
  }
  case ReleaseEdit::Calibration:
    // Entry NewId mod 8 gets a value no earlier version held, so two
    // neighbouring versions always differ in exactly one table word.
    F.Calib[static_cast<size_t>(NewId % 8)] = 1000 + NewId;
    break;
  }
  return F;
}

bool Bench::commit(const FirmwareSpec &Spec, double *Ms) {
  std::string Src = Spec.source(AesSource);
  int Expected = Svc->latestId() + 1;
  DiagnosticEngine Diag;
  auto Start = Clock::now();
  int Id = Svc->commit(Src, Opts, Diag);
  if (Ms)
    *Ms = secondsSince(Start) * 1e3;
  if (Id != Expected)
    return fail("commit of v" + std::to_string(Expected) +
                " failed: " + Diag.str());
  Specs.push_back(Spec);
  return true;
}

/// The pairs a release at \p Head plans: every cohort version to the head,
/// oldest first.
std::vector<std::pair<int, int>> Bench::releasePairs(int Head) const {
  std::vector<std::pair<int, int>> P;
  for (int V = std::max(0, Head - S.Cohorts); V < Head; ++V)
    P.push_back({V, Head});
  return P;
}

bool Bench::setup() {
  absorb();
  Svc.reset();
  Shadow.reset();
  Specs.clear();
  NextAux = 0;
  LastRev = 0;
  LastGlobal = 0;
  NextEdit = 0;
  EditRng = Rng(S.SeededHistory ? Seed : 0);
  StageOrder.resize(static_cast<size_t>(S.Stages));
  for (size_t K = 0; K < StageOrder.size(); ++K)
    StageOrder[K] = K;
  for (size_t K = StageOrder.size(); K > 1; --K)
    std::swap(StageOrder[K - 1], StageOrder[EditRng.below(K)]);
  FnCache = std::make_unique<CompileCache>(CompileCacheEntries);
  Opts.Cache = FnCache.get();
  VersionStore Store;
  if (S.DirStore) {
    std::filesystem::remove_all(WorkDir + "/store" +
                                std::to_string(Setups - 1));
    std::string Dir = WorkDir + "/store" + std::to_string(Setups++);
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir);
    DiagnosticEngine Diag;
    auto Opened = VersionStore::open(Dir, Diag);
    if (!Opened)
      return fail("cannot open store " + Dir + ": " + Diag.str());
    Store = std::move(*Opened);
  }
  Svc = std::make_unique<PlanService>(std::move(Store));

  if (!commit(initialSpec(), nullptr))
    return false;
  while (static_cast<int>(Specs.size()) < S.SetupVersions)
    if (!commit(edit(Specs.back(), static_cast<int>(Specs.size())), nullptr))
      return false;
  Base = Svc->store();
  BaseSpecs = Specs;
  KindCounts.assign(NumEditKinds, 0);
  CacheStart = FnCache->stats();
  Svc.reset();
  return startRound();
}

void Bench::absorb() {
  if (Svc) {
    PlanServiceStats Now = Svc->stats();
    Serve.Hits += Now.Hits - RoundStart.Hits;
    Serve.Misses += Now.Misses - RoundStart.Misses;
    Serve.Evictions += Now.Evictions - RoundStart.Evictions;
    Serve.AdmissionRejects +=
        Now.AdmissionRejects - RoundStart.AdmissionRejects;
    RoundStart = Now;
  }
  if (FnCache) {
    CompileCacheStats Now = FnCache->stats();
    Cache.Hits += Now.Hits - CacheStart.Hits;
    Cache.Misses += Now.Misses - CacheStart.Misses;
    CacheStart = Now;
  }
}

bool Bench::startRound() {
  PlanServiceOptions PO;
  PO.CacheCapacity = S.PlanCache;
  // One shard: with the default eight, the inserting shard evicts from
  // its own LRU tail under the global budget, and a shard whose share has
  // shrunk thrashes on its hot pairs on some seeds and not others (a
  // FOUND line in CHANGES.md), which no median over windows can make
  // steady. Traced runs measure the default on a shadow service.
  PO.Shards = 1;
  Svc = std::make_unique<PlanService>(VersionStore(Base), PO);
  if (Shadowed) {
    PlanServiceOptions Default;
    Default.CacheCapacity = S.PlanCache;
    Shadow = std::make_unique<PlanService>(VersionStore(Base), Default);
  }
  Specs = BaseSpecs;
  PlannedBytes.clear();
  // Warm what a running sink holds: the packages of the releases the
  // fleet still polls for.
  int Head = Svc->latestId();
  for (int H = Head - S.KeepReleases + 1; H <= Head; ++H)
    for (auto [From, To] : releasePairs(H)) {
      auto P = Svc->plan(From, To);
      if (!P || (Shadow && !Shadow->plan(From, To)))
        return fail("warm-up plan failed");
      PlannedBytes[{From, To}] = P->ScriptBytes;
    }
  RoundStart = Svc->stats();
  return true;
}

bool sameImage(const BinaryImage &A, const BinaryImage &B) {
  if (A.EntryFunc != B.EntryFunc || A.Code != B.Code ||
      A.DataInit != B.DataInit || A.Functions.size() != B.Functions.size())
    return false;
  for (size_t K = 0; K < A.Functions.size(); ++K)
    if (A.Functions[K].Name != B.Functions[K].Name ||
        A.Functions[K].Start != B.Functions[K].Start ||
        A.Functions[K].Count != B.Functions[K].Count)
      return false;
  return true;
}

bool near(double A, double B) {
  return std::fabs(A - B) <= 1e-9 * std::max({1.0, std::fabs(A), std::fabs(B)});
}

bool Bench::shadowRelease() {
  DiagnosticEngine Diag;
  int Head = Shadow->latestId() + 1;
  // Without the compile cache, so the cache's figures stay the sink's.
  CompileOptions Plain = Opts;
  Plain.Cache = nullptr;
  if (Shadow->commit(Specs.back().source(AesSource), Plain, Diag) != Head ||
      !sameImage(Shadow->store().find(Head)->Image, image(Head)))
    return fail("the shadow service committed another image");
  for (auto [From, To] : releasePairs(Head))
    if (!Shadow->plan(From, To))
      return fail("a shadow plan failed");
  uint64_t Before = Shadow->stats().Misses;
  size_t N = std::min(LastStream.size(), static_cast<size_t>(S.Window));
  for (size_t K = 0; K < N; ++K) {
    const auto &[From, To] = LastWorking[LastStream[K]];
    if (!Shadow->plan(From, To))
      return fail("a shadow plan failed");
  }
  ShadowMisses += static_cast<double>(Shadow->stats().Misses - Before);
  ++ShadowReleases;
  return true;
}

bool Bench::release(int Index, Outside &Out) {
  const bool Model = Index < S.RoundReleases;
  Rng R(Seed * 0x2545f4914f6cdd1dULL + static_cast<uint64_t>(Index) + 7);
  Rng FloodRng(R.next());
  const int Head = Svc->latestId() + 1;

  // 1. Commit the edited source.
  {
    ScopedSpan Span("bench.commit");
    double Ms = 0;
    if (!commit(edit(Specs.back(), Head), &Ms))
      return false;
    Times.CommitMs.push_back(Ms);
    ++Attempted;
  }
  const BinaryImage &HeadImg = image(Head);

  // 2. Plan one package per stale cohort: every one a cache miss.
  std::vector<std::pair<int, int>> Pairs = releasePairs(Head);
  std::vector<std::shared_ptr<const UpdatePlan>> Plans;
  {
    ScopedSpan Span("bench.plan");
    uint64_t MissesBefore = Svc->stats().Misses;
    for (auto [From, To] : Pairs) {
      auto Start = Clock::now();
      auto P = Svc->plan(From, To);
      Times.PlanMissMs.push_back(secondsSince(Start) * 1e3);
      ++Attempted;
      if (!P || P->From != From || P->To != To)
        return fail("plan " + std::to_string(From) + "->" +
                    std::to_string(To) + " failed");
      Plans.push_back(P);
      PlannedBytes[{From, To}] = P->ScriptBytes;
    }
    if (Svc->stats().Misses - MissesBefore != Pairs.size())
      return fail("a cohort package was served from the cache");
  }
  // Every served plan is no larger than its direct endpoint diff.
  for (size_t K = 0; K < Plans.size(); ++K) {
    size_t Direct =
        makeImageUpdate(image(Pairs[K].first), HeadImg, 1).scriptBytes();
    if (Plans[K]->ScriptBytes > Direct || Plans[K]->DirectBytes != Direct)
      return fail("plan larger than the direct endpoint diff");
  }

  // 3. The fleet's polling stream: Zipf over the packages of this and the
  // last KeepReleases-1 releases, most recent cohort first.
  {
    std::vector<std::pair<int, int>> Working;
    for (int H = Head; H > Head - S.KeepReleases; --H) {
      auto P = releasePairs(H);
      Working.insert(Working.end(), P.rbegin(), P.rend());
    }
    std::vector<double> Cdf;
    double Sum = 0;
    for (size_t K = 0; K < Working.size(); ++K)
      Cdf.push_back(Sum += std::pow(static_cast<double>(K + 1), -ZipfS));
    std::vector<uint32_t> Stream(static_cast<size_t>(S.Polls));
    size_t Expected = 0;
    for (uint32_t &Idx : Stream) {
      double U = R.unit() * Sum;
      Idx = static_cast<uint32_t>(
          std::min<size_t>(std::upper_bound(Cdf.begin(), Cdf.end(), U) -
                               Cdf.begin(),
                           Working.size() - 1));
      Expected += PlannedBytes.at(Working[Idx]);
    }
    ScopedSpan Span("bench.fetch");
    size_t Served = 0;
    bool Null = false;
    for (size_t Begin = 0; Begin < Stream.size();
         Begin += static_cast<size_t>(S.Window)) {
      size_t End = std::min(Stream.size(), Begin + static_cast<size_t>(S.Window));
      auto Start = Clock::now();
      for (size_t K = Begin; K < End; ++K) {
        const auto &[From, To] = Working[Stream[K]];
        auto P = Svc->plan(From, To);
        if (P)
          Served += P->ScriptBytes;
        else
          Null = true;
      }
      double Sec = secondsSince(Start);
      Times.FetchPerS.push_back(static_cast<double>(End - Begin) / Sec);
      Out.HitWindowS += Sec;
      Out.HitRequests += static_cast<double>(End - Begin);
    }
    Attempted += S.Polls;
    if (Null || Served != Expected)
      return fail("the polling stream was served a different plan");
    if (Shadow) {
      LastWorking = std::move(Working);
      LastStream = std::move(Stream);
    }
  }

  // 4. Flood every cohort's package over the whole fleet.
  double RolloutS = 0;
  {
    ScopedSpan Span("bench.flood");
    for (size_t K = 0; K < Plans.size(); ++K) {
      FleetConfig Cfg;
      Cfg.Jobs = 1;
      Cfg.Seed = FloodRng.next();
      Cfg.Link = {S.Loss, S.Jitter, S.Asym};
      Cfg.Duty = {S.DutyPeriod, S.DutyOn};
      Cfg.Mac.MaxBursts = S.MaxBursts;
      auto Start = Clock::now();
      FleetResult F = simulateFlood(Topo, Plans[K]->ScriptBytes, Cfg);
      double Sec = secondsSince(Start);
      RolloutS += Sec;
      ++Attempted;
      if (F.NodesComplete != Connected || F.NodesIncomplete != 0)
        return fail("a flood left connected nodes incomplete");
      const EnergyLedger &E = F.Energy;
      const Mica2Power &P = Cfg.Power;
      double PerNode = 0;
      for (double J : F.PerNodeJoules)
        PerNode += J;
      if (!near(PerNode, F.totalJoules()) ||
          !near(E.TxJoules, E.TxSeconds * P.RadioTxA * P.SupplyVolts) ||
          !near(E.RxJoules, E.RxSeconds * P.RadioRxA * P.SupplyVolts) ||
          !near(E.ListenJoules,
                E.ListenSeconds * P.RadioRxA * P.SupplyVolts) ||
          !near(E.SleepJoules,
                E.SleepSeconds * P.CpuStandbyA * P.SupplyVolts))
        return fail("a flood's energy ledger does not add up");
      Out.FloodS += Sec;
      Out.Events += static_cast<double>(F.EventsProcessed);
      Out.Batches += static_cast<double>(F.Batches);
      Out.Collisions += static_cast<double>(F.Collisions);
      Out.Retransmissions += static_cast<double>(F.Retransmissions);
      Out.Requests += static_cast<double>(F.Requests);
      Out.SleepMisses += static_cast<double>(F.SleepMisses);
      Out.TxJ += E.TxJoules;
      Out.RxJ += E.RxJoules;
      Out.ListenJ += E.ListenJoules;
      Out.SleepJ += E.SleepJoules;
      if (Model) {
        Mod.ScriptBytes += static_cast<double>(Plans[K]->ScriptBytes);
        Mod.Joules += F.totalJoules();
        Mod.SimS += F.SimSeconds;
      }
    }
  }
  Times.RolloutS.push_back(RolloutS);

  // 5. Every node patches itself; the head image runs once (a node that
  // holds it byte for byte behaves the same on the deterministic core).
  {
    ScopedSpan Span("bench.nodes");
    std::vector<int> Order(static_cast<size_t>(Topo.NumNodes - 1));
    for (size_t K = 0; K < Order.size(); ++K)
      Order[K] = static_cast<int>(K);
    for (size_t K = Order.size(); K > 1; --K)
      std::swap(Order[K - 1], Order[R.below(K)]);
    // Node n's cohort; the first StaleNodes nodes of the shuffled order
    // whose cohort has a predecessor really run the version before it.
    std::vector<int> Recorded(static_cast<size_t>(Topo.NumNodes), Head);
    std::vector<int> Actual(Recorded);
    int Stale = 0;
    for (size_t K = 0; K < Order.size(); ++K) {
      size_t Node = K + 1;
      size_t Cohort = static_cast<size_t>(Order[K]) % Pairs.size();
      Recorded[Node] = Actual[Node] = Pairs[Cohort].first;
    }
    for (size_t K = 0; K < Order.size() && Stale < S.StaleNodes; ++K) {
      size_t Node = static_cast<size_t>(Order[K]) + 1;
      if (Recorded[Node] > 0) {
        Actual[Node] = Recorded[Node] - 1;
        ++Stale;
      }
    }
    if (Stale != S.StaleNodes)
      return fail("not enough nodes to mis-record");
    auto Start = Clock::now();
    BinaryImage Patched;
    for (int Node = 1; Node < Topo.NumNodes; ++Node) {
      size_t N = static_cast<size_t>(Node);
      const UpdatePlan &Pkg =
          *Plans[static_cast<size_t>(Recorded[N] - Pairs.front().first)];
      ++Attempted;
      bool Applied = applyUpdate(image(Actual[N]), Pkg.Update, Patched);
      if (!Applied && Actual[N] != Recorded[N]) {
        // A refusal of the wrong base, then a re-plan from the version
        // the node really runs. Kept out of every end-to-end metric.
        auto Replan = Svc->plan(Actual[N], Head);
        Applied = Replan && applyUpdate(image(Actual[N]), Replan->Update,
                                        Patched);
      }
      if (!Applied || !sameImage(Patched, HeadImg)) {
        if (Actual[N] == Recorded[N])
          return fail("a cohort package did not yield the head image");
        ++Failed; // the stale-base fault: a wrong image was accepted
      }
    }
    Out.ApplyS += secondsSince(Start);

    SimOptions SO;
    SO.MaxSteps = 200'000'000;
    auto RunStart = Clock::now();
    RunResult Run = runImage(HeadImg, SO);
    Out.SimRunS += secondsSince(RunStart);
    Out.SimSteps += static_cast<double>(Run.Steps);
    ++Attempted;
    const FirmwareSpec &Spec = Specs.back();
    if (!Run.Halted || Run.Trapped || Run.DebugTrace != Spec.expectedDebug())
      return fail("v" + std::to_string(Head) +
                  " does not print what the host oracle computes");
    if (Spec.Aes) {
      std::vector<int> Cipher = fipsCipher();
      for (size_t K = 0; K < Cipher.size(); ++K)
        if (Run.DebugTrace[K] != Cipher[K])
          return fail("embedded AES does not print the FIPS-197 ciphertext");
    }
    if (Model) {
      Mod.Cycles += static_cast<double>(Run.Cycles);
      Mod.ImageBytes += static_cast<double>(HeadImg.serialize().size());
    }
  }
  ++Releases;
  return true;
}

//===----------------------------------------------------------------------===//
// Trace reading
//===----------------------------------------------------------------------===//

/// Self time (span time minus child span time) accumulated by span name,
/// with `diff` split by whether a commit or a plan caused it.
void selfTimes(const TelemetrySpan &Sp, const std::string &Context,
               std::map<std::string, double> &Self) {
  double Children = 0;
  std::string Ctx = Context;
  if (Sp.Name == "serve.commit")
    Ctx = "commit";
  else if (Sp.Name == "store.plan" || Sp.Name == "serve.plan")
    Ctx = "plan";
  for (const auto &C : Sp.Children) {
    Children += C->Seconds;
    selfTimes(*C, Ctx, Self);
  }
  std::string Key = Sp.Name == "diff" ? "diff." + Ctx : Sp.Name;
  Self[Key] += Sp.Seconds - Children;
}

long peakRssKb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atol(Line.c_str() + 6);
  return 0;
}

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

void printResult(bool Correct, int64_t Attempted, int64_t Failed,
                 const std::vector<Metric> &Metrics) {
  for (const Metric &M : Metrics)
    std::printf("  %-32s %18.6f %s\n", M.Name.c_str(), M.Value, M.Unit);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              Correct ? "true" : "false", static_cast<long long>(Attempted),
              static_cast<long long>(Failed));
  for (size_t K = 0; K < Metrics.size(); ++K)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                K ? ", " : "", Metrics[K].Name.c_str(),
                std::isfinite(Metrics[K].Value) ? Metrics[K].Value : 0.0,
                Metrics[K].Unit);
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <release-train|fleet-fetch|"
               "fleet-rollout> --seed <n> --seconds <s> --trace <0|1>\n"
               "                 --work-dir <dir> [--trace-out <file>]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload, WorkDir, TraceOut;
  long long SeedArg = -1;
  double Seconds = -1;
  int TraceArg = -1;
  for (int K = 1; K + 1 < Argc; K += 2) {
    std::string Flag = Argv[K], Val = Argv[K + 1];
    if (Flag == "--workload")
      Workload = Val;
    else if (Flag == "--seed")
      SeedArg = std::atoll(Val.c_str());
    else if (Flag == "--seconds")
      Seconds = std::atof(Val.c_str());
    else if (Flag == "--trace")
      TraceArg = std::atoi(Val.c_str());
    else if (Flag == "--work-dir")
      WorkDir = Val;
    else if (Flag == "--trace-out")
      TraceOut = Val;
    else
      return usage();
  }
  const Shape *Sh = findShape(Workload);
  if (!Sh || SeedArg < 0 || Seconds <= 0 || (TraceArg != 0 && TraceArg != 1) ||
      WorkDir.empty() || Argc % 2 == 0)
    return usage();
  const bool Traced = TraceArg == 1;

  ThreadPool::setDefaultJobs(1);
  std::filesystem::create_directories(WorkDir);

  Bench B(*Sh, static_cast<uint64_t>(SeedArg), WorkDir);
  B.Shadowed = Traced;
  bool Ok = aesEncrypt(fipsKey(), fipsPlain()) == fipsCipher() ||
            B.fail("the host AES reference misses the FIPS-197 vector");

  // Set-up from scratch, again and again for the first quarter of the
  // run (at least five times); the median is reported, and the first
  // round starts from the last one.
  std::vector<double> SetupS;
  auto SetupStart = Clock::now();
  while (Ok && (SetupS.size() < 5 || secondsSince(SetupStart) < Seconds / 4)) {
    auto Start = Clock::now();
    Ok = B.setup();
    SetupS.push_back(secondsSince(Start));
  }
  const double ReleaseSeconds = Seconds - secondsSince(SetupStart);

  Telemetry Tel;
  std::vector<double> TracedS, PlainS;
  // Whole rounds, each from a fresh set-up, until the time is up.
  auto Start = Clock::now();
  for (int R = 0; Ok && (R == 0 || R % Sh->RoundReleases != 0 ||
                         secondsSince(Start) < ReleaseSeconds);
       ++R) {
    if (R > 0 && R % Sh->RoundReleases == 0 && !(Ok = B.setup()))
      break;
    // The traced run alternates traced and untraced releases, so the
    // tracing overhead is measured under the same conditions.
    // Only untraced releases feed the outside metrics.
    std::optional<TelemetryScope> Scope;
    Outside TracedOut;
    if (Traced && R % 2 == 1)
      Scope.emplace(Tel);
    auto RStart = Clock::now();
    Ok = B.release(R, Scope ? TracedOut : B.Out);
    (Scope ? TracedS : PlainS).push_back(secondsSince(RStart));
    Scope.reset();
    if (Ok && Traced)
      Ok = B.shadowRelease();
  }
  if (!Ok)
    std::fprintf(stderr, "perfbench: %s\n", B.Error.c_str());

  std::vector<Metric> M;
  double Rel = std::max(1, B.Releases);
  double Plain = std::max<size_t>(1, PlainS.size());
  if (!Traced) {
    M = {
        {"setup_s", median(SetupS), "s"},
        {"peak_rss_mb", static_cast<double>(peakRssKb()) / 1024.0, "MB"},
        {"commit_ms", median(B.Times.CommitMs), "ms"},
        {"plan_miss_ms", median(B.Times.PlanMissMs), "ms"},
        {"fetch_plans_per_s", median(B.Times.FetchPerS), "1/s"},
        {"rollout_s", median(B.Times.RolloutS), "s"},
        {"script_bytes", B.Mod.ScriptBytes, "bytes"},
        {"rollout_joules", B.Mod.Joules, "J"},
        {"rollout_sim_s", B.Mod.SimS, "sim_s"},
        {"image_cycles", B.Mod.Cycles, "cycles"},
        {"image_bytes", B.Mod.ImageBytes, "bytes"},
    };
  } else if (Ok) {
    std::map<std::string, double> Self;
    selfTimes(Tel.spans(), "", Self);
    double TR = std::max<size_t>(1, TracedS.size());
    auto Ms = [&](const char *Name) { return Self[Name] * 1e3 / TR; };
    B.absorb();
    const PlanServiceStats &St = B.Serve;
    double CHits = static_cast<double>(B.Cache.Hits);
    double CMiss = static_cast<double>(B.Cache.Misses);
    double SHits = static_cast<double>(St.Hits);
    double SMiss = static_cast<double>(St.Misses);
    const Outside &O = B.Out;
    M = {
        {"frontend.parse_ms", Ms("parse"), "ms"},
        {"opt.opt_ms", Ms("opt"), "ms"},
        {"codegen.isel_ms", Ms("isel"), "ms"},
        {"codegen.encode_ms", Ms("encode"), "ms"},
        {"regalloc.ra_ms", Ms("ra"), "ms"},
        {"regalloc.functions",
         static_cast<double>(Tel.counter("ra.functions")) / TR, "count"},
        {"regalloc.spilled_vregs",
         static_cast<double>(Tel.counter("ra.spilled_vregs")) / TR, "count"},
        {"dataalloc.da_ms", Ms("da"), "ms"},
        {"lp.ilp_solves", static_cast<double>(Tel.counter("lp.ilp_solves")),
         "count"},
        {"core.compile_cache_hit_ratio",
         CHits + CMiss > 0 ? CHits / (CHits + CMiss) : 0.0, "ratio"},
        {"core.compile_cache_misses", CMiss / Rel, "count"},
        {"serve.commit_self_ms", Ms("serve.commit"), "ms"},
        {"core.store_plan_ms", Ms("store.plan"), "ms"},
        {"diff.plan_diff_ms", Ms("diff.plan"), "ms"},
        {"diff.commit_diff_ms", Ms("diff.commit"), "ms"},
        {"serve.hit_ns", O.HitWindowS * 1e9 / std::max(1.0, O.HitRequests),
         "ns"},
        {"serve.hit_ratio", SHits + SMiss > 0 ? SHits / (SHits + SMiss) : 0.0,
         "ratio"},
        {"serve.misses", SMiss / Rel, "count"},
        {"serve.evictions",
         static_cast<double>(St.Evictions) / Rel, "count"},
        {"serve.sharded_misses",
         B.ShadowMisses / std::max(1, B.ShadowReleases), "count"},
        {"serve.admission_rejects",
         static_cast<double>(St.AdmissionRejects) / Rel,
         "count"},
        {"diff.apply_ms", O.ApplyS * 1e3 / Plain, "ms"},
        {"sim.run_ms", O.SimRunS * 1e3 / Plain, "ms"},
        {"sim.steps", O.SimSteps / Plain, "count"},
        {"net.flood_s", O.FloodS / Plain, "s"},
        {"net.events", O.Events / Plain, "count"},
        {"net.events_per_s", O.FloodS > 0 ? O.Events / O.FloodS : 0.0, "1/s"},
        {"net.batches", O.Batches / Plain, "count"},
        {"net.collisions", O.Collisions / Plain, "count"},
        {"net.retransmissions", O.Retransmissions / Plain, "count"},
        {"net.requests", O.Requests / Plain, "count"},
        {"net.sleep_misses", O.SleepMisses / Plain, "count"},
        {"energy.tx_j", O.TxJ / Plain, "J"},
        {"energy.rx_j", O.RxJ / Plain, "J"},
        {"energy.listen_j", O.ListenJ / Plain, "J"},
        {"energy.sleep_j", O.SleepJ / Plain, "J"},
        {"trace.overhead_pct",
         (median(TracedS) / std::max(1e-12, median(PlainS)) - 1.0) * 100.0,
         "%"},
    };
    if (!TraceOut.empty()) {
      std::filesystem::path P(TraceOut);
      if (P.has_parent_path())
        std::filesystem::create_directories(P.parent_path());
      std::ofstream(TraceOut) << Tel.toJson();
    }
  }
  B.Svc.reset();
  B.Shadow.reset();
  std::filesystem::remove_all(WorkDir);
  std::printf("%s seed %lld: %d releases, %zu traced, %zu set-ups\n",
              Sh->Name, SeedArg, B.Releases, TracedS.size(), SetupS.size());
  if (Sh->Edit == ReleaseEdit::Stages) {
    std::printf("stage edits by kind:");
    for (int K = 0; K < NumEditKinds; ++K)
      std::printf(" %s %d", editKindName(static_cast<EditKind>(K)),
                  B.KindCounts[static_cast<size_t>(K)]);
    std::printf("\n");
  }
  printResult(Ok, B.Attempted, B.Failed, M);
  return Ok ? 0 : 1;
}
