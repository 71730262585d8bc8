//===- perfbench/firmware.h - generated firmware and its host oracle ------===//
//
// The benchmark's inputs: a seeded MiniC firmware (a few dozen sensor
// stages, shared globals, optional calibration table, optional embedded
// AES-128 workload) described by a FirmwareSpec, and the host oracle that
// computes what a run of that firmware must print on the debug port. The
// oracle evaluates the spec directly with 16-bit wrapping arithmetic
// (docs/LANGUAGE.md); it never goes through the compiler.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_FIRMWARE_H
#define PERFBENCH_FIRMWARE_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64: the benchmark's only source of randomness, so inputs are a
/// pure function of --seed on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N); N > 0.
  uint64_t below(uint64_t N) { return next() % N; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t S;
};

/// The kinds of source edit in the paper's update cases (Fig. 9, as
/// catalogued in src/workloads/Workloads.cpp), as they apply to one
/// generated stage. An edit changes one field of one StageSpec; every kind
/// but Constant toggles, so a stage can be edited any number of times.
enum class EditKind {
  Constant,     ///< retune the stage's constants
  Instruction,  ///< one operator changes (a1 += / -=)
  Variable,     ///< one operand changes (acc mixes a0 / a3)
  Parameter,    ///< the stage gains or loses a parameter (the tick)
  ControlFlow,  ///< a branch condition gains or loses a guard
  ElseBranch,   ///< an if gains or loses its else branch
  Extend,       ///< add a straight-line local after the loop (at two,
                ///< drop both)
  InsertGlobal, ///< insert a global read by a new guard early in the
                ///< stage, or remove it again
};
constexpr int NumEditKinds = 8;
const char *editKindName(EditKind K);

/// One stage's source: every field is the state of one edit kind.
struct StageSpec {
  int Rev = 0;         ///< Constant: the constants' revision
  bool Sub = false;    ///< Instruction
  bool MixA3 = false;  ///< Variable
  bool Param = false;  ///< Parameter
  bool Guard = false;  ///< ControlFlow
  bool Else = false;   ///< ElseBranch
  int Extra = 0;       ///< Extend: 0, 1 or 2 extra locals
  int Global = -1;     ///< InsertGlobal: the global's id, -1 for none
  int GlobalInit = 0;  ///< and its initial value
};

/// Everything that determines one firmware version's source text and
/// behaviour. Releases edit a copy of the previous release's spec.
struct FirmwareSpec {
  uint64_t Salt = 0;             ///< seeds every stage constant
  std::vector<StageSpec> Stages;
  /// Extra globals (name, initializer) in declaration order; adding or
  /// removing one shifts the data layout under every function.
  std::vector<std::pair<std::string, int>> Aux;
  std::vector<int> Calib; ///< calib[8] table read by main (empty = none)
  bool Aes = false;       ///< embed the AES-128 workload in main

  /// The MiniC source. \p AesSource is the library's AES workload text
  /// (workloadSource("AES")); its main is replaced by this firmware's.
  std::string source(const std::string &AesSource) const;

  /// The debug-port trace a correct compilation prints: the AES
  /// ciphertext (when embedded), one accumulator per tick, every core
  /// global, and the sum of the aux globals.
  std::vector<int16_t> expectedDebug() const;
};

/// Applies one edit of kind \p K to \p S. \p NewRev is a revision no
/// stage has held; \p NewGlobal and \p Init name and initialize the
/// global an InsertGlobal edit adds.
void applyEdit(StageSpec &S, EditKind K, int NewRev, int NewGlobal, int Init);

/// AES-128 encryption of \p Plain under \p Key, computed on the host
/// (S-box derived from the GF(2^8) inverse and affine map, no stored
/// table).
std::vector<int> aesEncrypt(const std::vector<int> &Key,
                            const std::vector<int> &Plain);

/// The FIPS-197 appendix C.1 vector: key 00..0f, plaintext 00112233..ff.
std::vector<int> fipsKey();
std::vector<int> fipsPlain();
/// Its published ciphertext, 69c4e0d86a7b0430d8cdb78070b4c55a.
std::vector<int> fipsCipher();

} // namespace perfbench

#endif // PERFBENCH_FIRMWARE_H
