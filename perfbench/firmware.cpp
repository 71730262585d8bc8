//===- perfbench/firmware.cpp - generated firmware and its host oracle ----===//

#include "firmware.h"

#include "support/Format.h"

#include <stdexcept>

namespace perfbench {

using ucc::format;

namespace {

/// Globals g0.. that the stages accumulate into, and iterations of main's
/// sensing loop.
constexpr int CoreGlobals = 4;
constexpr int Ticks = 6;

/// MiniC's int: a signed 16-bit word; every operation wraps.
int16_t w(int V) { return static_cast<int16_t>(static_cast<uint16_t>(V)); }
int16_t add(int16_t A, int16_t B) { return w(A + B); }
int16_t sub(int16_t A, int16_t B) { return w(A - B); }
int16_t shl(int16_t A, int N) {
  return w(static_cast<uint16_t>(A) << N);
}
int16_t sar(int16_t A, int N) { return static_cast<int16_t>(A >> N); }

/// The constants of one stage revision.
struct StageConsts {
  int C0, C1, C2, C3, C4, C5, C6, N;
};

StageConsts stageConsts(uint64_t Salt, int Stage, int Rev) {
  Rng R(Salt ^ (static_cast<uint64_t>(Stage) << 32) ^
        (static_cast<uint64_t>(Rev) * 0x51ed27ULL));
  StageConsts C;
  C.C0 = 1 + static_cast<int>(R.below(4000));
  C.C1 = 1 + static_cast<int>(R.below(0x7ffe));
  C.C2 = 1 + static_cast<int>(R.below(255));
  C.C3 = 1 + static_cast<int>(R.below(500));
  C.C4 = 100 + static_cast<int>(R.below(8000));
  C.C5 = 1 + static_cast<int>(R.below(0x7ffe));
  C.C6 = 1 + static_cast<int>(R.below(1000));
  // The trip count follows the stage, not the seed, so image cycles
  // differ little from seed to seed.
  C.N = 4 + Stage % 5;
  return C;
}

/// One sensor stage: five values carried around a loop with two branches,
/// plus what the edits in \p Sp add (a parameter, a guarded global, a
/// branch guard, an else branch, straight-line locals after the loop).
/// None of the edits adds a loop-carried value: with one more, every
/// stage spills under SAVR's twelve registers, and UCC-RA's update of
/// such stages can emit a wrong image (see CHANGES.md).
std::string stageSource(const StageConsts &C, const StageSpec &Sp, int Stage,
                        int Global) {
  std::string S = format("\nint stage_%d(int x%s) {\n", Stage,
                         Sp.Param ? ", int t" : "");
  S += format("  int acc = x + %d;\n"
              "  int a0 = x ^ %d;\n"
              "  int a1 = (x << 1) + %d;\n"
              "  int a2 = a0 - a1;\n"
              "  int a3 = a2 + %d;\n"
              "  int i = 0;\n",
              C.C0, C.C1, C.C2, C.C3);
  if (Sp.Global >= 0)
    S += format("  if (gs_%d != 0) {\n    acc = acc ^ gs_%d;\n  }\n",
                Sp.Global, Sp.Global);
  if (Sp.Param)
    S += "  acc = acc + (t & 3);\n";
  S += format("  while (i < %d) {\n", C.N);
  S += format("    acc = acc + (%s ^ i);\n", Sp.MixA3 ? "a3" : "a0");
  S += format("    a1 = a1 %c (acc >> 2);\n", Sp.Sub ? '-' : '+');
  S += "    a2 = a2 ^ (a1 + i);\n"
       "    a3 = (a3 << 1) ^ (a2 & 0x3ff);\n";
  S += format("    if (acc > %d%s) {\n", C.C4,
              Sp.Guard ? " && (i & 1) != 0" : "");
  S += "      acc = acc - (a2 >> 1);\n"
       "      a0 = a0 + 5;\n"
       "    }\n"
       "    if (a3 < a1) {\n"
       "      a3 = a3 + a1;\n";
  S += Sp.Else ? "    } else {\n      a3 = a3 - a0;\n    }\n" : "    }\n";
  S += "    i = i + 1;\n"
       "  }\n"
       "  acc = acc + a0 - a1;\n"
       "  acc = acc ^ (a2 + a3);\n";
  if (Sp.Extra >= 1)
    S += format("  int e0 = (a1 ^ %d) + a2;\n  acc = acc + e0;\n", C.C5);
  if (Sp.Extra >= 2)
    S += format("  int e1 = (a3 - %d) ^ e0;\n  acc = acc ^ e1;\n", C.C6);
  S += format("  g%d = g%d + (acc & 15);\n  return acc & 0x7fff;\n}\n", Global,
              Global);
  return S;
}

/// Host mirror of stageSource: same statements, 16-bit wrapping. \p T is
/// main's tick, read only when the stage takes it.
int16_t stageEval(const StageConsts &C, const StageSpec &Sp, int16_t X,
                  int16_t T, int16_t &G) {
  int16_t Acc = add(X, w(C.C0));
  int16_t A0 = w(X ^ C.C1);
  int16_t A1 = add(shl(X, 1), w(C.C2));
  int16_t A2 = sub(A0, A1);
  int16_t A3 = add(A2, w(C.C3));
  if (Sp.Global >= 0 && Sp.GlobalInit != 0)
    Acc = w(Acc ^ Sp.GlobalInit);
  if (Sp.Param)
    Acc = add(Acc, w(T & 3));
  for (int16_t I = 0; I < C.N; I = add(I, 1)) {
    Acc = add(Acc, w((Sp.MixA3 ? A3 : A0) ^ I));
    A1 = Sp.Sub ? sub(A1, sar(Acc, 2)) : add(A1, sar(Acc, 2));
    A2 = w(A2 ^ add(A1, I));
    A3 = w(shl(A3, 1) ^ w(A2 & 0x3ff));
    if (Acc > C.C4 && (!Sp.Guard || (I & 1) != 0)) {
      Acc = sub(Acc, sar(A2, 1));
      A0 = add(A0, 5);
    }
    if (A3 < A1)
      A3 = add(A3, A1);
    else if (Sp.Else)
      A3 = sub(A3, A0);
  }
  Acc = sub(add(Acc, A0), A1);
  Acc = w(Acc ^ add(A2, A3));
  int16_t E0 = add(w(A1 ^ C.C5), A2);
  if (Sp.Extra >= 1)
    Acc = add(Acc, E0);
  if (Sp.Extra >= 2)
    Acc = w(Acc ^ w(sub(A3, w(C.C6)) ^ E0));
  G = add(G, w(Acc & 15));
  return w(Acc & 0x7fff);
}

} // namespace

const char *editKindName(EditKind K) {
  switch (K) {
  case EditKind::Constant:
    return "constant";
  case EditKind::Instruction:
    return "instruction";
  case EditKind::Variable:
    return "variable";
  case EditKind::Parameter:
    return "parameter";
  case EditKind::ControlFlow:
    return "control-flow";
  case EditKind::ElseBranch:
    return "else-branch";
  case EditKind::Extend:
    return "extend";
  case EditKind::InsertGlobal:
    return "insert-global";
  }
  return "?";
}

void applyEdit(StageSpec &S, EditKind K, int NewRev, int NewGlobal,
               int Init) {
  switch (K) {
  case EditKind::Constant:
    S.Rev = NewRev;
    break;
  case EditKind::Instruction:
    S.Sub = !S.Sub;
    break;
  case EditKind::Variable:
    S.MixA3 = !S.MixA3;
    break;
  case EditKind::Parameter:
    S.Param = !S.Param;
    break;
  case EditKind::ControlFlow:
    S.Guard = !S.Guard;
    break;
  case EditKind::ElseBranch:
    S.Else = !S.Else;
    break;
  case EditKind::Extend:
    S.Extra = (S.Extra + 1) % 3;
    break;
  case EditKind::InsertGlobal:
    S.Global = S.Global < 0 ? NewGlobal : -1;
    S.GlobalInit = S.Global < 0 ? 0 : Init;
    break;
  }
}

std::string FirmwareSpec::source(const std::string &AesSource) const {
  std::string S;
  if (Aes) {
    size_t Main = AesSource.find("void main()");
    if (Main == std::string::npos)
      throw std::runtime_error("AES workload has no main");
    S += AesSource.substr(0, Main);
  }
  // Inserted globals come first, so adding or removing one moves every
  // global declared after it.
  for (const StageSpec &Sp : Stages)
    if (Sp.Global >= 0)
      S += format("int gs_%d = %d;\n", Sp.Global, Sp.GlobalInit);
  for (int G = 0; G < CoreGlobals; ++G)
    S += format("int g%d;\n", G);
  for (const auto &[Name, Init] : Aux)
    S += format("int %s = %d;\n", Name.c_str(), Init);
  if (!Calib.empty()) {
    S += "int calib[8] = {";
    for (size_t K = 0; K < Calib.size(); ++K)
      S += format("%s%d", K ? ", " : "", Calib[K]);
    S += "};\n";
  }
  for (int F = 0; F < static_cast<int>(Stages.size()); ++F) {
    const StageSpec &Sp = Stages[static_cast<size_t>(F)];
    S += stageSource(stageConsts(Salt, F, Sp.Rev), Sp, F, F % CoreGlobals);
  }

  S += "\nvoid main() {\n  int t = 0;\n  int acc = 7;\n";
  if (Aes)
    S += "  init_sbox();\n  expand_key();\n"
         "  for (t = 0; t < 16; t = t + 1) {\n    state[t] = pt[t];\n  }\n"
         "  encrypt();\n"
         "  for (t = 0; t < 16; t = t + 1) {\n    __out(15, state[t]);\n  }\n"
         "  t = 0;\n";
  S += format("  while (t < %d) {\n    acc = acc + __in(3);\n", Ticks);
  for (int F = 0; F < static_cast<int>(Stages.size()); ++F)
    S += format("    acc = acc + stage_%d(acc%s);\n", F,
                Stages[static_cast<size_t>(F)].Param ? ", t" : "");
  if (!Calib.empty())
    S += "    acc = acc + calib[t & 7];\n";
  S += "    __out(15, acc);\n    t = t + 1;\n  }\n";
  for (int G = 0; G < CoreGlobals; ++G)
    S += format("  __out(15, g%d);\n", G);
  std::string AuxSum = "0";
  for (const auto &Entry : Aux)
    AuxSum += " + " + Entry.first;
  S += "  __out(15, " + AuxSum + ");\n  __halt();\n}\n";
  return S;
}

std::vector<int16_t> FirmwareSpec::expectedDebug() const {
  std::vector<int16_t> Out;
  if (Aes)
    for (int Byte : aesEncrypt(fipsKey(), fipsPlain()))
      Out.push_back(w(Byte));
  std::vector<int16_t> G(static_cast<size_t>(CoreGlobals), 0);
  int16_t Acc = 7;
  int16_t Timer = 0;
  for (int T = 0; T < Ticks; ++T) {
    Acc = add(Acc, Timer);
    Timer = add(Timer, 1);
    for (int F = 0; F < static_cast<int>(Stages.size()); ++F) {
      const StageSpec &Sp = Stages[static_cast<size_t>(F)];
      StageConsts C = stageConsts(Salt, F, Sp.Rev);
      Acc = add(Acc, stageEval(C, Sp, Acc, w(T),
                               G[static_cast<size_t>(F % CoreGlobals)]));
    }
    if (!Calib.empty())
      Acc = add(Acc, w(Calib[static_cast<size_t>(T & 7)]));
    Out.push_back(Acc);
  }
  Out.insert(Out.end(), G.begin(), G.end());
  int16_t AuxSum = 0;
  for (const auto &Entry : Aux)
    AuxSum = add(AuxSum, w(Entry.second));
  Out.push_back(AuxSum);
  return Out;
}

//===----------------------------------------------------------------------===//
// AES-128 (FIPS-197), host reference
//===----------------------------------------------------------------------===//

namespace {

int xtime(int A) { return ((A << 1) ^ ((A & 0x80) ? 0x1b : 0)) & 0xff; }

int gfMul(int A, int B) {
  int P = 0;
  for (; B; B >>= 1, A = xtime(A))
    if (B & 1)
      P ^= A;
  return P;
}

std::vector<int> computeSbox() {
  std::vector<int> Box(256);
  for (int X = 0; X < 256; ++X) {
    int Inv = 0;
    for (int Y = 1; Y < 256 && X; ++Y)
      if (gfMul(X, Y) == 1)
        Inv = Y;
    int S = Inv;
    for (int K = 1; K <= 4; ++K)
      S ^= ((Inv << K) | (Inv >> (8 - K))) & 0xff;
    Box[static_cast<size_t>(X)] = S ^ 0x63;
  }
  return Box;
}

} // namespace

std::vector<int> aesEncrypt(const std::vector<int> &Key,
                            const std::vector<int> &Plain) {
  static const std::vector<int> Sbox = computeSbox();
  // Key expansion into 44 words of 4 bytes.
  std::vector<int> W(176);
  for (int I = 0; I < 16; ++I)
    W[static_cast<size_t>(I)] = Key[static_cast<size_t>(I)];
  int Rcon = 1;
  for (int I = 4; I < 44; ++I) {
    int T[4];
    for (int B = 0; B < 4; ++B)
      T[B] = W[static_cast<size_t>((I - 1) * 4 + B)];
    if (I % 4 == 0) {
      int First = T[0];
      for (int B = 0; B < 3; ++B)
        T[B] = Sbox[static_cast<size_t>(T[B + 1])];
      T[3] = Sbox[static_cast<size_t>(First)];
      T[0] ^= Rcon;
      Rcon = xtime(Rcon);
    }
    for (int B = 0; B < 4; ++B)
      W[static_cast<size_t>(I * 4 + B)] =
          W[static_cast<size_t>((I - 4) * 4 + B)] ^ T[B];
  }

  std::vector<int> S(Plain);
  auto AddRoundKey = [&](int Round) {
    for (int I = 0; I < 16; ++I)
      S[static_cast<size_t>(I)] ^= W[static_cast<size_t>(Round * 16 + I)];
  };
  AddRoundKey(0);
  for (int Round = 1; Round <= 10; ++Round) {
    for (int &B : S)
      B = Sbox[static_cast<size_t>(B)];
    // ShiftRows: row r of column c moves to column c - r.
    std::vector<int> Shifted(16);
    for (int C = 0; C < 4; ++C)
      for (int R = 0; R < 4; ++R)
        Shifted[static_cast<size_t>(C * 4 + R)] =
            S[static_cast<size_t>(((C + R) % 4) * 4 + R)];
    S = Shifted;
    if (Round != 10)
      for (int C = 0; C < 4; ++C) {
        int A[4];
        for (int R = 0; R < 4; ++R)
          A[R] = S[static_cast<size_t>(C * 4 + R)];
        for (int R = 0; R < 4; ++R)
          S[static_cast<size_t>(C * 4 + R)] =
              gfMul(A[R], 2) ^ gfMul(A[(R + 1) % 4], 3) ^ A[(R + 2) % 4] ^
              A[(R + 3) % 4];
      }
    AddRoundKey(Round);
  }
  return S;
}

std::vector<int> fipsKey() {
  std::vector<int> K(16);
  for (int I = 0; I < 16; ++I)
    K[static_cast<size_t>(I)] = I;
  return K;
}

std::vector<int> fipsPlain() {
  std::vector<int> P(16);
  for (int I = 0; I < 16; ++I)
    P[static_cast<size_t>(I)] = I * 0x11;
  return P;
}

std::vector<int> fipsCipher() {
  return {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
          0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
}

} // namespace perfbench
