#include "profiler.hpp"

#include <cxxabi.h>
#include <elf.h>
#include <execinfo.h>
#include <fcntl.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>

#include "probe.hpp"

namespace perfbench {
namespace {

constexpr int kMaxFrames = 96;

struct Module {
  std::string_view ns;
  Layer layer;
  bool measured;
};

constexpr Module kModules[] = {
    {"sim", Layer::Sim, true},
    {"os", Layer::Os, true},
    {"net", Layer::Net, true},
    {"monitor", Layer::Monitor, true},
    {"lb", Layer::Lb, true},
    {"web", Layer::Web, true},
    {"workload", Layer::Workload, true},
    {"telemetry", Layer::Telemetry, true},
    {"cluster", Layer::Cluster, true},
    {"reconfig", Layer::Cluster, true},
    // Never on a workload's hot path (fault injection, Fig 8's Ganglia,
    // output formatting): charged to whatever called them.
    {"fault", Layer::Other, false},
    {"ganglia", Layer::Other, false},
    {"util", Layer::Other, false},
};

constexpr FrameClass kTransparent{FrameKind::Transparent, Layer::Other};
constexpr FrameClass kBench{FrameKind::Bench, Layer::Other};

FrameClass module_class(std::string_view ns) {
  for (const Module& m : kModules) {
    if (m.ns == ns) {
      return m.measured ? FrameClass{FrameKind::Module, m.layer}
                        : kTransparent;
    }
  }
  return kTransparent;
}

bool eat(std::string_view& s, std::string_view prefix) {
  if (s.substr(0, prefix.size()) != prefix) return false;
  s.remove_prefix(prefix.size());
  return true;
}

/// Reads an Itanium <source-name> (<length><identifier>) off the front.
bool source_name(std::string_view& s, std::string_view& out) {
  std::size_t len = 0, i = 0;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
    len = len * 10 + static_cast<std::size_t>(s[i] - '0');
    ++i;
  }
  if (i == 0 || i + len > s.size()) return false;
  out = s.substr(i, len);
  s.remove_prefix(i + len);
  return true;
}

enum class Scope { Other, Std, Rdmamon, Bench };

/// Scope of the function a mangled name encodes; for Rdmamon, `ns` is
/// the namespace directly inside rdmamon::.
Scope own_scope(std::string_view s, std::string_view& ns) {
  if (s == "main") return Scope::Bench;
  if (!eat(s, "_Z")) return Scope::Other;
  // Virtual-call thunks: _ZTh<offset>_<encoding>, _ZTv<off>_<off>_<enc>.
  if (eat(s, "Th")) {
    s.remove_prefix(std::min(s.size(), s.find('_') + 1));
  } else if (eat(s, "Tv")) {
    s.remove_prefix(std::min(s.size(), s.find('_') + 1));
    s.remove_prefix(std::min(s.size(), s.find('_') + 1));
  }
  // Local entities (lambdas, local classes) Z<encoding>E<entity> belong
  // to the enclosing function's scope; L marks internal linkage.
  while (eat(s, "Z") || eat(s, "L")) {
  }
  if (eat(s, "N")) {
    while (eat(s, "r") || eat(s, "V") || eat(s, "K")) {
    }
    if (!eat(s, "R")) eat(s, "O");
  }
  if (s.substr(0, 2) == "St") return Scope::Std;
  if (eat(s, "9perfbench")) return Scope::Bench;
  if (!eat(s, "7rdmamon")) return Scope::Other;
  eat(s, "L");
  return source_name(s, ns) ? Scope::Rdmamon : Scope::Other;
}

/// Top-level template arguments of the first template-id that starts at
/// `open` (the index of its '<') in a demangled name.
std::vector<std::string_view> template_args(std::string_view d,
                                            std::size_t open) {
  std::vector<std::string_view> args;
  int depth = 0;
  std::size_t start = open + 1;
  for (std::size_t i = open; i < d.size(); ++i) {
    const char c = d[i];
    if (c == '<' || c == '(' || c == '[' || c == '{') {
      ++depth;
    } else if (c == '>' || c == ')' || c == ']' || c == '}') {
      if (--depth == 0) {
        args.push_back(d.substr(start, i - start));
        break;
      }
    } else if (c == ',' && depth == 1) {
      args.push_back(d.substr(start, i - start));
      start = i + 1;
    }
  }
  for (std::string_view& a : args) {
    while (!a.empty() && a.front() == ' ') a.remove_prefix(1);
  }
  return args;
}

/// Class of a callable type as the demangler spells it: the scope of the
/// first top-level rdmamon:: or perfbench:: name in it.
FrameClass callable_class(std::string_view t) {
  int depth = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const char c = t[i];
    if (c == '<' || c == '(' || c == '[' || c == '{') {
      ++depth;
    } else if (c == '>' || c == ')' || c == ']' || c == '}') {
      --depth;
    }
    if (depth != 0 || (i > 0 && t[i - 1] != ' ')) continue;
    std::string_view rest = t.substr(i);
    if (eat(rest, "perfbench::")) return kBench;
    if (eat(rest, "rdmamon::")) {
      return module_class(rest.substr(0, rest.find("::")));
    }
  }
  return kTransparent;
}

std::string demangle(const std::string& mangled) {
  // Clone suffixes (".actor", ".cold") are not part of the mangling.
  const std::string base = mangled.substr(0, mangled.find('.'));
  int status = 0;
  char* d = abi::__cxa_demangle(base.c_str(), nullptr, nullptr, &status);
  std::string out = status == 0 && d != nullptr ? d : "";
  std::free(d);
  return out;
}

/// A std::function trampoline takes the class of the callable it
/// invokes (its second template argument), whose body is inlined into it.
FrameClass trampoline_class(const std::string& d) {
  static constexpr std::string_view kHandler = "std::_Function_handler<";
  if (std::string_view(d).substr(0, kHandler.size()) != kHandler) {
    return kTransparent;
  }
  const auto args = template_args(d, kHandler.size() - 1);
  return args.size() >= 2 ? callable_class(args[1]) : kTransparent;
}

}  // namespace

const char* layer_name(Layer l) {
  static constexpr const char* kNames[kLayers] = {
      "sim", "os", "net", "monitor", "lb", "web", "workload", "telemetry",
      "cluster", "other"};
  return kNames[static_cast<std::size_t>(l)];
}

FrameClass classify_symbol(std::string_view mangled) {
  std::string_view ns;
  switch (own_scope(mangled, ns)) {
    case Scope::Bench:
      return kBench;
    case Scope::Other:
      return kTransparent;
    case Scope::Std:
      return trampoline_class(demangle(std::string(mangled)));
    case Scope::Rdmamon:
      return module_class(ns);
  }
  return kTransparent;
}

Layer charge(const FrameClass* frames, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (frames[i].kind == FrameKind::Module) return frames[i].layer;
    if (frames[i].kind == FrameKind::Bench) return Layer::Other;
  }
  return Layer::Other;
}

bool SymbolTable::load_self() {
  std::uintptr_t bias = 0;
  dl_iterate_phdr(
      [](dl_phdr_info* info, std::size_t, void* out) {
        *static_cast<std::uintptr_t*>(out) = info->dlpi_addr;
        return 1;  // the first object is the executable itself
      },
      &bias);

  const int fd = open("/proc/self/exe", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  auto read_at = [fd](void* buf, std::size_t len, std::uint64_t off) {
    return pread(fd, buf, len, static_cast<off_t>(off)) ==
           static_cast<ssize_t>(len);
  };
  Elf64_Ehdr eh{};
  std::vector<Elf64_Shdr> sh;
  bool ok = read_at(&eh, sizeof eh, 0) &&
            std::memcmp(eh.e_ident, ELFMAG, SELFMAG) == 0 &&
            eh.e_ident[EI_CLASS] == ELFCLASS64;
  if (ok) {
    sh.resize(eh.e_shnum);
    ok = read_at(sh.data(), sh.size() * sizeof(Elf64_Shdr), eh.e_shoff);
  }
  const Elf64_Shdr* symtab = nullptr;
  for (const Elf64_Shdr& s : sh) {
    if (s.sh_type == SHT_SYMTAB) symtab = &s;
  }
  ok = ok && symtab != nullptr && symtab->sh_link < sh.size();
  std::vector<Elf64_Sym> syms;
  std::vector<char> strtab;
  if (ok) {
    const Elf64_Shdr& str = sh[symtab->sh_link];
    syms.resize(symtab->sh_size / sizeof(Elf64_Sym));
    strtab.resize(str.sh_size + 1, '\0');
    ok = read_at(syms.data(), syms.size() * sizeof(Elf64_Sym),
                 symtab->sh_offset) &&
         read_at(strtab.data(), str.sh_size, str.sh_offset);
  }
  close(fd);
  if (!ok) return false;

  entries_.clear();
  for (const Elf64_Sym& s : syms) {
    if (ELF64_ST_TYPE(s.st_info) != STT_FUNC || s.st_value == 0 ||
        s.st_size == 0 || s.st_name >= strtab.size()) {
      continue;
    }
    const std::uintptr_t lo = bias + s.st_value;
    entries_.push_back({lo, lo + s.st_size,
                        classify_symbol(&strtab[s.st_name])});
  }
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) { return a.lo < b.lo; });
  return !entries_.empty();
}

FrameClass SymbolTable::lookup(std::uintptr_t pc) const {
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), pc,
      [](std::uintptr_t v, const Entry& e) { return v < e.lo; });
  if (it == entries_.begin()) return kTransparent;
  --it;
  return pc < it->hi ? it->cls : kTransparent;
}

// --- CPU sampler ----------------------------------------------------------

namespace {

/// Charges the stack `pcs[0..n)` (innermost first; every entry but the
/// first is a return address) to a layer.
Layer charge_pcs(const SymbolTable& syms, void* const* pcs, int n) {
  FrameClass frames[kMaxFrames];
  const int m = std::min(n, kMaxFrames);
  for (int i = 0; i < m; ++i) {
    // Return addresses may point one past a noreturn call's function.
    const std::uintptr_t pc =
        reinterpret_cast<std::uintptr_t>(pcs[i]) - (i > 0 ? 1 : 0);
    frames[i] = syms.lookup(pc);
  }
  return charge(frames, static_cast<std::size_t>(m));
}

struct SamplerState {
  const SymbolTable* syms = nullptr;
  LayerTally tally[3] = {};
  volatile sig_atomic_t phase = CpuSampler::kIdle;
  std::uint64_t lost = 0;
};
SamplerState g_sampler;

// backtrace() is not on the async-signal-safe list. It is safe enough
// here: start() runs it once first, so the handler never loads the
// unwinder, and a sampled process throws no exceptions, so no other
// unwind can be interrupted half-way.
void on_prof(int, siginfo_t*, void* uctx) {
  const int saved_errno = errno;
  void* pcs[kMaxFrames];
  const int n = backtrace(pcs, kMaxFrames);
  void* const rip = reinterpret_cast<void*>(
      static_cast<ucontext_t*>(uctx)->uc_mcontext.gregs[REG_RIP]);
  // Frames above the interrupted one belong to this handler and the
  // kernel's signal trampoline.
  int first = -1;
  for (int i = 0; i < n; ++i) {
    if (pcs[i] == rip) {
      first = i;
      break;
    }
  }
  if (first < 0) {
    ++g_sampler.lost;
  } else {
    const Layer l = charge_pcs(*g_sampler.syms, pcs + first, n - first);
    ++g_sampler.tally[g_sampler.phase][static_cast<std::size_t>(l)];
  }
  errno = saved_errno;
}

}  // namespace

CpuSampler::CpuSampler(const SymbolTable& syms) {
  g_sampler = SamplerState{};
  g_sampler.syms = &syms;
}

CpuSampler::~CpuSampler() { stop(); }

void CpuSampler::start(int interval_us) {
  // The first backtrace() loads the unwinder; do it outside the handler.
  void* warm[4];
  backtrace(warm, 4);
  struct sigaction sa {};
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  itimerval it{};
  it.it_interval.tv_usec = interval_us;
  it.it_value.tv_usec = interval_us;
  setitimer(ITIMER_PROF, &it, nullptr);
}

void CpuSampler::stop() {
  itimerval it{};
  setitimer(ITIMER_PROF, &it, nullptr);
  signal(SIGPROF, SIG_IGN);
}

void CpuSampler::set_phase(Phase p) { g_sampler.phase = p; }

const LayerTally& CpuSampler::tally(Phase p) const {
  return g_sampler.tally[p];
}

std::uint64_t CpuSampler::lost() const { return g_sampler.lost; }

// --- allocation sampler -----------------------------------------------------

namespace {

const SymbolTable* g_alloc_syms = nullptr;
LayerTally* g_alloc_out = nullptr;

void on_alloc_sample() {
  void* pcs[kMaxFrames];
  const int n = backtrace(pcs, kMaxFrames);
  FrameClass frames[kMaxFrames];
  int skip = 0;
  for (int i = 0; i < n; ++i) {
    const std::uintptr_t pc =
        reinterpret_cast<std::uintptr_t>(pcs[i]) - (i > 0 ? 1 : 0);
    frames[i] = g_alloc_syms->lookup(pc);
    // The leading benchmark frames are this hook itself.
    if (skip == i && frames[i].kind == FrameKind::Bench) ++skip;
  }
  const Layer l =
      charge(frames + skip, static_cast<std::size_t>(std::max(0, n - skip)));
  ++(*g_alloc_out)[static_cast<std::size_t>(l)];
}

}  // namespace

void start_alloc_sampling(const SymbolTable& syms, std::uint64_t every,
                          LayerTally* out) {
  void* warm[4];
  backtrace(warm, 4);
  g_alloc_syms = &syms;
  g_alloc_out = out;
  g_alloc.sample_every = every;
  g_alloc.sample_base = g_alloc.counted;
  g_alloc.on_sample = on_alloc_sample;
}

void stop_alloc_sampling() { g_alloc.on_sample = nullptr; }

}  // namespace perfbench
