//===- FunctionCache.cpp - Content-hashed compiled-program cache -------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "server/FunctionCache.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace igen;
using namespace igen::server;

namespace {

// The content hash mixes one 8-byte word per step with MurmurHash64A's
// multiplier and shift. Each word's own mixing is independent of the
// running hash, so the serial chain is one xor and one multiply per 8
// bytes: a compile-cache hit is dominated by hashing the source, and the
// serve_bench gate holds a hit to 1/50 of a pipeline run.
constexpr uint64_t HashSeed = 0x9e3779b97f4a7c15ull;
constexpr uint64_t MixMul = 0xc6a4a7935bd1e995ull;
constexpr int MixShift = 47;

uint64_t mixWord(uint64_t K) {
  K *= MixMul;
  K ^= K >> MixShift;
  return K * MixMul;
}

void feedWord(uint64_t &H, uint64_t K) { H = (H ^ mixWord(K)) * MixMul; }

/// Length first, so consecutive fields cannot run into each other.
void feed(uint64_t &H, std::string_view Bytes) {
  feedWord(H, Bytes.size());
  size_t I = 0;
  for (; I + 8 <= Bytes.size(); I += 8) {
    uint64_t K;
    std::memcpy(&K, Bytes.data() + I, 8);
    feedWord(H, K);
  }
  if (I < Bytes.size()) {
    uint64_t K = 0;
    std::memcpy(&K, Bytes.data() + I, Bytes.size() - I);
    feedWord(H, K);
  }
}

void feedTag(uint64_t &H, char Tag, long long V) {
  feedWord(H, (unsigned char)Tag);
  feedWord(H, (unsigned long long)V);
}

} // namespace

uint64_t igen::server::hashCompileRequest(std::string_view Source,
                                          const TransformOptions &Opts) {
  uint64_t H = HashSeed;
  feed(H, Source);
  feedTag(H, 'P', Opts.Prec == TransformOptions::Precision::DoubleDouble);
  feedTag(H, 'S', Opts.ScalarLibrary);
  feedTag(H, 'R', Opts.EnableReductions);
  feedTag(H, 'B', Opts.EnableBatchLoops);
  feedTag(H, 'J',
          Opts.Branches == TransformOptions::BranchPolicy::Join);
  feedTag(H, 'O', Opts.OptLevel);
  feedTag(H, 'F', Opts.Profile);
  feedTag(H, 'T', Opts.Tier);
  feedTag(H, 'H', Opts.Harden);
  // Headers/module names only change emitted-C cosmetics, but two
  // requests differing there should not share an artifact either.
  feedTag(H, 'h', 0);
  feed(H, Opts.RuntimeHeader);
  feedTag(H, 'm', 0);
  feed(H, Opts.ModuleName);
  H ^= H >> MixShift; // final avalanche over the last word
  H *= MixMul;
  return H ^ (H >> MixShift);
}

std::string igen::server::formatHandle(uint64_t Hash) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                (unsigned long long)Hash);
  return Buf;
}

bool igen::server::parseHandle(std::string_view Text, uint64_t &Hash) {
  if (Text.size() != 16)
    return false;
  uint64_t H = 0;
  for (char C : Text) {
    unsigned D;
    if (C >= '0' && C <= '9')
      D = unsigned(C - '0');
    else if (C >= 'a' && C <= 'f')
      D = unsigned(C - 'a' + 10);
    else
      return false;
    H = (H << 4) | D;
  }
  Hash = H;
  return true;
}

FunctionCache::FunctionCache(long Capacity) {
  long C = Capacity;
  if (C <= 0) {
    C = 64;
    if (const char *E = std::getenv("IGEN_SERVE_CACHE")) {
      char *End = nullptr;
      long V = std::strtol(E, &End, 10);
      if (End && *End == '\0' && V > 0)
        C = V;
    }
  }
  Cap = (size_t)C;
  S.Capacity = Cap;
}

std::shared_ptr<const InMemoryProgram>
FunctionCache::lookup(uint64_t Hash, bool CountMiss) {
  std::lock_guard<std::mutex> G(M);
  auto It = Index.find(Hash);
  if (It == Index.end()) {
    if (CountMiss)
      ++S.Misses;
    return nullptr;
  }
  ++S.Hits;
  Lru.splice(Lru.begin(), Lru, It->second);
  return It->second->Prog;
}

void FunctionCache::insert(uint64_t Hash,
                           std::shared_ptr<const InMemoryProgram> Prog) {
  std::lock_guard<std::mutex> G(M);
  auto It = Index.find(Hash);
  if (It != Index.end()) {
    It->second->Prog = std::move(Prog);
    Lru.splice(Lru.begin(), Lru, It->second);
    return;
  }
  Lru.push_front(Entry{Hash, std::move(Prog)});
  Index[Hash] = Lru.begin();
  ++S.Insertions;
  evictOverflowLocked();
  S.Resident = Lru.size();
}

void FunctionCache::evictOverflowLocked() {
  while (Lru.size() > Cap) {
    uint64_t Victim = Lru.back().Hash;
    Index.erase(Victim);
    Lru.pop_back();
    ++S.Evictions;
    if (OnEvict)
      OnEvict(Victim);
  }
}

bool FunctionCache::evict(uint64_t Hash) {
  std::lock_guard<std::mutex> G(M);
  auto It = Index.find(Hash);
  if (It == Index.end())
    return false;
  Lru.erase(It->second);
  Index.erase(It);
  ++S.Evictions;
  S.Resident = Lru.size();
  if (OnEvict)
    OnEvict(Hash);
  return true;
}

size_t FunctionCache::clear() {
  std::lock_guard<std::mutex> G(M);
  size_t N = Lru.size();
  S.Evictions += N;
  if (OnEvict)
    for (const Entry &E : Lru)
      OnEvict(E.Hash);
  Lru.clear();
  Index.clear();
  S.Resident = 0;
  return N;
}

CacheStats FunctionCache::stats() const {
  std::lock_guard<std::mutex> G(M);
  CacheStats Out = S;
  Out.Resident = Lru.size();
  Out.Capacity = Cap;
  return Out;
}

std::vector<std::string> FunctionCache::residentHandles() const {
  std::lock_guard<std::mutex> G(M);
  std::vector<std::string> Out;
  Out.reserve(Lru.size());
  for (const Entry &E : Lru)
    Out.push_back(formatHandle(E.Hash));
  return Out;
}
