// The traced run's attribution machinery: a table of the executable's
// function symbols, the rule that charges a stack to one of the repo's
// modules ("layers"), a SIGPROF stack sampler, and every-k-th allocation
// stack sampling. NOTES.md explains how to read what it produces.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

/// The measured modules of src/ (reconfig counts as cluster), plus
/// `Other` for samples with no rdmamon::<layer> frame.
enum class Layer : std::uint8_t {
  Sim, Os, Net, Monitor, Lb, Web, Workload, Telemetry, Cluster, Other
};
inline constexpr std::size_t kLayers = 10;
const char* layer_name(Layer l);

/// How one stack frame takes part in attribution.
enum class FrameKind : std::uint8_t {
  Transparent,  ///< std/libc/unmeasured code: charged to its caller
  Module,       ///< a rdmamon::<layer> function: owns the sample
  Bench,        ///< the benchmark's own code: the sample goes to Other
};

struct FrameClass {
  FrameKind kind = FrameKind::Transparent;
  Layer layer = Layer::Other;
};

/// Classifies a function by its mangled (Itanium ABI) name. The layer is
/// the namespace that encloses the function itself, so template
/// arguments, parameter types and clone suffixes (".actor", ".cold",
/// ".isra.0") do not matter, and a lambda or local class takes the layer
/// of the function it is written in. A std::function trampoline takes
/// the layer of the callable it invokes, whose body is inlined into it;
/// sim::InlineFn's invokers do not name their callable, so callbacks
/// inlined into them count for sim. The unmeasured modules fault,
/// ganglia and util are transparent.
FrameClass classify_symbol(std::string_view mangled);

/// The layer a stack (innermost frame first) is charged to: that of the
/// first non-transparent frame, or Other.
Layer charge(const FrameClass* frames, std::size_t n);

/// Function symbols of the running executable (from its ELF .symtab),
/// each classified once at load time so lookups never allocate.
class SymbolTable {
 public:
  /// Reads /proc/self/exe. Returns false if the table cannot be read.
  bool load_self();
  /// Class of the function containing `pc`; Transparent outside the
  /// executable (shared libraries).
  FrameClass lookup(std::uintptr_t pc) const;

 private:
  struct Entry {
    std::uintptr_t lo = 0, hi = 0;
    FrameClass cls;
  };
  std::vector<Entry> entries_;  ///< sorted by lo
};

/// Per-layer sample counts.
using LayerTally = std::array<std::uint64_t, kLayers>;

/// SIGPROF sampler: ITIMER_PROF fires on consumed CPU time; each tick's
/// interrupted stack is charged to a layer in the current phase's tally.
/// The signal handler's state is process-wide: one sampler at a time.
class CpuSampler {
 public:
  enum Phase { kSetup = 0, kMeasure = 1, kIdle = 2 };

  explicit CpuSampler(const SymbolTable& syms);
  ~CpuSampler();
  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;

  void start(int interval_us);
  void stop();
  void set_phase(Phase p);
  const LayerTally& tally(Phase p) const;
  /// Samples whose stack could not be captured (charged nowhere).
  std::uint64_t lost() const;
};

/// From now on, every `every`-th counted allocation has its stack charged
/// to a layer in `out`. Deterministic: the k-th allocation after the
/// start is the same call site in every same-seed run.
void start_alloc_sampling(const SymbolTable& syms, std::uint64_t every,
                          LayerTally* out);
void stop_alloc_sampling();

}  // namespace perfbench
